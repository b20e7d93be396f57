// Clang thread-safety capability annotations + annotated lock types.
//
// The locking discipline of every concurrent subsystem (thread pool,
// stage queues, fault registry, metrics stripes, trace buffers) is
// machine-checked at compile time under Clang:
//
//   -DLEAD_THREAD_SAFETY=ON   (CMake; promotes -Wthread-safety and
//                              -Wthread-safety-beta to errors)
//
// Data members name the lock that protects them with LEAD_GUARDED_BY,
// functions declare lock contracts with LEAD_REQUIRES / LEAD_ACQUIRE /
// LEAD_RELEASE / LEAD_EXCLUDES, and the analysis rejects any access
// pattern that violates them — including interleavings the TSan suite
// never schedules. Off Clang (GCC, MSVC) every macro expands to nothing,
// so the annotations are zero-cost documentation.
//
// This header is deliberately self-contained (standard library only) so
// every layer — including src/obs, which links beneath lead_common —
// can use it.
//
// Known limits of the static analysis (DESIGN.md §"Thread-safety
// capabilities and lint v2"):
//  - Lambda bodies are analyzed as separate functions with no inherited
//    lock set, so guarded members must not be read from predicate
//    lambdas (condition_variable waits in this tree use explicit loops
//    instead).
//  - std::condition_variable_any::wait releases and reacquires the lock
//    inside a system header the analysis does not model; the capability
//    is held again by the time wait returns, which is the invariant the
//    caller's code actually relies on.
#pragma once

#include <mutex>

// ---------------------------------------------------------------------------
// Annotation macros (no-ops off Clang).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define LEAD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LEAD_THREAD_ANNOTATION(x)
#endif

// Declares a type to be a capability ("mutex" shows in diagnostics).
#define LEAD_CAPABILITY(x) LEAD_THREAD_ANNOTATION(capability(x))

// Declares an RAII type whose lifetime acquires/releases a capability.
#define LEAD_SCOPED_CAPABILITY LEAD_THREAD_ANNOTATION(scoped_lockable)

// Data member is protected by the given capability.
#define LEAD_GUARDED_BY(x) LEAD_THREAD_ANNOTATION(guarded_by(x))

// Pointer member whose *pointee* is protected by the given capability.
#define LEAD_PT_GUARDED_BY(x) LEAD_THREAD_ANNOTATION(pt_guarded_by(x))

// Caller must hold the capability(ies) to call this function.
#define LEAD_REQUIRES(...) \
  LEAD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Function acquires the capability(ies) and does not release them.
#define LEAD_ACQUIRE(...) \
  LEAD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

// Function releases the capability(ies); caller must hold them.
#define LEAD_RELEASE(...) \
  LEAD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Function acquires the capability when it returns `result`.
#define LEAD_TRY_ACQUIRE(result, ...) \
  LEAD_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

// Caller must NOT hold the capability(ies) (deadlock prevention).
#define LEAD_EXCLUDES(...) LEAD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Function returns a reference to the named capability (lock getters).
#define LEAD_RETURN_CAPABILITY(x) LEAD_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: the function's locking is correct for reasons the
// analysis cannot see. Every use must carry a justification comment.
#define LEAD_NO_THREAD_SAFETY_ANALYSIS \
  LEAD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace lead {

// ---------------------------------------------------------------------------
// Annotated lock types.
// ---------------------------------------------------------------------------

// std::mutex wrapper carrying the capability annotations the analysis
// needs. BasicLockable (lower-case lock/unlock), so it works directly
// with std::condition_variable_any and std::lock_guard — but library
// code must lock it through MutexLock (lead-lint "lock-scope" flags
// naked .lock()/.unlock() calls outside RAII types).
class LEAD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // RAII wrapper internals only; the lock-scope markers below exist
  // because this IS the RAII boundary every other lock call goes through.
  void lock() LEAD_ACQUIRE() { mu_.lock(); }    // lead-lint: allow(lock-scope)
  void unlock() LEAD_RELEASE() { mu_.unlock(); }  // lead-lint: allow(lock-scope)
  bool try_lock() LEAD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII lock for Mutex, modeled on the scoped-capability pattern in the
// Clang thread-safety docs: construction acquires, destruction releases,
// with explicit Unlock/Lock for the handful of sites (notify after
// early-release, worker loops) that stage the hold.
class LEAD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LEAD_ACQUIRE(mu) : mu_(&mu), held_(true) {
    mu_->lock();  // lead-lint: allow(lock-scope)
  }
  ~MutexLock() LEAD_RELEASE() {
    if (held_) mu_->unlock();  // lead-lint: allow(lock-scope)
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Early release (e.g. notify a condition variable without holding).
  void Unlock() LEAD_RELEASE() {
    held_ = false;
    mu_->unlock();  // lead-lint: allow(lock-scope)
  }
  // Re-acquire after Unlock (worker loops that drop the lock per task).
  void Lock() LEAD_ACQUIRE() {
    mu_->lock();  // lead-lint: allow(lock-scope)
    held_ = true;
  }

  // BasicLockable shims so std::condition_variable_any can release and
  // reacquire around its sleep. Deliberately unannotated: the capability
  // is held again by the time wait() returns, so the analysis-visible
  // state (held across the call) matches what callers rely on.
  void lock() { mu_->lock(); }      // lead-lint: allow(lock-scope)
  void unlock() { mu_->unlock(); }  // lead-lint: allow(lock-scope)

 private:
  Mutex* mu_;
  bool held_;
};

}  // namespace lead
