// Compile-gated runtime contracts for the nn substrate (LEAD_CHECK_SHAPES).
//
// With -DLEAD_CHECK_SHAPES=ON every op, layer step, and batched kernel
// validates its operand shapes on entry and aborts naming the offending
// op and both shapes, so a mismatch fails where it was caused instead of
// 40 frames later inside a GEMM. The same flag turns on autograd-tape
// validation in variable.cc: double-backward detection, dangling-node
// detection, and first-NaN-origin reporting (the first op whose output or
// outgoing gradient goes non-finite is named).
//
// When the flag is off every helper here is an empty inline function, so
// the contracts cost nothing in release builds. These checks complement
// the always-on LEAD_CHECKs (which keep guarding release binaries) by
// carrying the op name and the shapes into the failure report, and they
// complement sanitizers: ASan sees the out-of-bounds read a shape bug
// eventually causes, this names the op that broke the contract first.
#pragma once

#include <cmath>

#include "nn/matrix.h"

namespace lead::nn::contract {

#ifdef LEAD_CHECK_SHAPES
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

// Aborts with "op <op>: <requirement>: lhs [r x c] vs rhs [r x c]".
[[noreturn]] void Fail(const char* op, const char* requirement, int a_rows,
                       int a_cols, int b_rows, int b_cols);
// Aborts with a tape-validation message (no shapes involved).
[[noreturn]] void TapeFail(const char* op, const char* what);
// Aborts naming the op and the element where the first non-finite value
// appeared.
[[noreturn]] void NonFiniteFail(const char* op, const char* what, int row,
                                int col, float value);

#ifdef LEAD_CHECK_SHAPES

// `ok` must hold between the two operands; names both shapes on failure.
inline void Require(const char* op, bool ok, const char* requirement,
                    const Matrix& a, const Matrix& b) {
  if (!ok) Fail(op, requirement, a.rows(), a.cols(), b.rows(), b.cols());
}
// Unary form: the rhs of the report is the expected shape (-1 = any).
inline void RequireDims(const char* op, const Matrix& a, int rows, int cols,
                        const char* requirement) {
  bool ok = (rows < 0 || a.rows() == rows) && (cols < 0 || a.cols() == cols);
  if (!ok) Fail(op, requirement, a.rows(), a.cols(), rows, cols);
}
inline void RequireSameShape(const char* op, const Matrix& a,
                             const Matrix& b) {
  Require(op, a.SameShape(b), "operand shapes must match", a, b);
}
// MatMul-style inner-dimension agreement: a [m x k] * b [k x n].
inline void RequireInner(const char* op, const Matrix& a, const Matrix& b) {
  Require(op, a.cols() == b.rows(), "inner dimensions must agree", a, b);
}
// Row/column range [start, start+len) must fit the operand; the report's
// rhs carries (start, len).
inline void RequireSpan(const char* op, const Matrix& a, int start, int len,
                        int bound, const char* requirement) {
  if (start < 0 || len < 1 || start + len > bound) {
    Fail(op, requirement, a.rows(), a.cols(), start, len);
  }
}
// A single row/element index must be in [0, bound); rhs carries
// (index, bound).
inline void RequireIndex(const char* op, const Matrix& a, int index,
                         int bound, const char* requirement) {
  if (index < 0 || index >= bound) {
    Fail(op, requirement, a.rows(), a.cols(), index, bound);
  }
}
// Scans a raw row-major [rows x cols] buffer for the first non-finite
// element; aborts naming the op.
inline void RequireFiniteRaw(const char* op, const char* what,
                             const float* d, int rows, int cols) {
  for (int i = 0; i < rows * cols; ++i) {
    if (!std::isfinite(d[i])) {
      const int stride = cols > 0 ? cols : 1;
      NonFiniteFail(op, what, i / stride, i % stride, d[i]);
    }
  }
}
inline void RequireFinite(const char* op, const char* what, const Matrix& m) {
  RequireFiniteRaw(op, what, m.data(), m.rows(), m.cols());
}

#else

inline void Require(const char*, bool, const char*, const Matrix&,
                    const Matrix&) {}
inline void RequireDims(const char*, const Matrix&, int, int, const char*) {}
inline void RequireSameShape(const char*, const Matrix&, const Matrix&) {}
inline void RequireInner(const char*, const Matrix&, const Matrix&) {}
inline void RequireSpan(const char*, const Matrix&, int, int, int,
                        const char*) {}
inline void RequireIndex(const char*, const Matrix&, int, int, const char*) {}
inline void RequireFiniteRaw(const char*, const char*, const float*, int,
                             int) {}
inline void RequireFinite(const char*, const char*, const Matrix&) {}

#endif  // LEAD_CHECK_SHAPES

}  // namespace lead::nn::contract
