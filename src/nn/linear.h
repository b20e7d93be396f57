// Fully connected layer: y = x W + b.
#pragma once

#include "common/rng.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace lead::nn {

class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng);

  // x: [T x in] -> [T x out]; the bias row broadcasts over T.
  Variable Forward(const Variable& x) const;

  // Raw no-grad form of Forward for the fused inference kernels:
  // out [rows x out] = x [rows x in] W + b, the same GEMM and bias-add
  // kernels in the same order, so bit-identical row for row. out may not
  // alias x.
  void InferRows(const float* x, int rows, float* out) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Variable weight_;  // [in x out]
  Variable bias_;    // [1 x out]
};

}  // namespace lead::nn

