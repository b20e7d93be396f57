// Process-wide memory budget with admission control.
//
// The accountant tracks bytes *admitted* for large transient workloads
// (each trajectory's scoring matrices, admitted before Detect scores it)
// against a configurable cap. Admission is rejected — kResourceExhausted
// — only for *new* work; in-flight reservations are never revoked, so a
// stage that was admitted always gets to finish. Cap 0 (the default) disables
// enforcement; accounting still runs so the mem.budget.used_bytes gauge
// stays truthful.
//
// This is deliberately not a malloc hook: admission happens at the few
// sites that create large, predictable allocations, where the caller can
// estimate the size up front and has a graceful fallback (shed the
// trajectory). The `alloc.fail` fault point fires inside Admit() so chaos
// tests can force rejections without actually exhausting memory.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace lead {

class MemoryBudget {
 public:
  // Process-wide singleton (leaked, like ThreadPool::Global()).
  static MemoryBudget& Global();

  // Sets the cap in bytes; 0 disables enforcement. Takes effect for the
  // next Admit() — already-admitted reservations are unaffected.
  void SetCapBytes(int64_t cap_bytes);
  int64_t cap_bytes() const {
    return cap_.load(std::memory_order_relaxed);
  }
  int64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }

  // Admits and charges `bytes` if the budget allows, else
  // kResourceExhausted naming `what`. Thread-safe; over-admission between
  // concurrent checks is bounded by one reservation per thread.
  Status Admit(int64_t bytes, const char* what);

  // Returns a charge taken by Admit() (or tracked externally).
  void Release(int64_t bytes);

  // RAII reservation: Admit on construction (check ok()), Release on
  // destruction. Movable so it can ride inside result objects.
  class Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& other) noexcept
        : bytes_(other.bytes_), status_(std::move(other.status_)) {
      other.bytes_ = 0;
    }
    Reservation& operator=(Reservation&& other) noexcept;
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation();

    [[nodiscard]] const Status& status() const { return status_; }
    [[nodiscard]] bool ok() const { return status_.ok(); }
    [[nodiscard]] int64_t bytes() const { return bytes_; }

   private:
    friend class MemoryBudget;
    int64_t bytes_ = 0;
    Status status_;
  };

  // Admit-or-fail as a reservation; a failed reservation holds the typed
  // status and charges nothing.
  [[nodiscard]] Reservation Reserve(int64_t bytes, const char* what);

 private:
  MemoryBudget() = default;

  // Lock-free by design: each member is an independent atomic with no
  // cross-member invariant (capability review, common/annotate.h — there
  // is deliberately no mutex here for LEAD_GUARDED_BY to name). Admit()
  // tolerates bounded over-admission between concurrent checks instead.
  std::atomic<int64_t> cap_{0};
  std::atomic<int64_t> used_{0};
};

}  // namespace lead
