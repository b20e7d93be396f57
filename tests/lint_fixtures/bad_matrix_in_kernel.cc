// Fixture: constructing a Matrix temporary inside an operator kernel
// body — a function taking `const OpCall&` — must be flagged (rule:
// matrix-in-kernel). Kernels write into caller-owned buffers, so a
// Matrix temp heap-allocates on every op application.
struct TensorView {
  float* data;
  int rows;
  int cols;
};
struct OpCall {
  const TensorView* in;
  TensorView out;
};
struct Matrix {
  Matrix(int r, int c);
  float* data();
};
// The function-pointer alias mentions `const OpCall&` with no body and
// must not confuse the rule.
using OpKernel = void (*)(const OpCall&);

void BadCopyKernel(const OpCall& call) {
  Matrix scratch(call.out.rows, call.out.cols);
  (void)scratch;
}

void AllowedScratchKernel(const OpCall& call) {
  Matrix scratch(call.out.rows, 1);  // lead-lint: allow(matrix-in-kernel)
  (void)scratch;
}

// Not a kernel: Matrix temporaries outside `const OpCall&` functions are
// fine.
void PlainHelper(int rows, int cols) {
  Matrix scratch(rows, cols);
  (void)scratch;
}
