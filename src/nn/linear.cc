#include "nn/linear.h"

#include "nn/init.h"
#include "nn/contract.h"

namespace lead::nn {

Linear::Linear(int in_features, int out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter("weight",
                              XavierUniform(in_features, out_features, rng));
  bias_ = RegisterParameter("bias", Matrix::Zeros(1, out_features));
}

Variable Linear::Forward(const Variable& x) const {
  contract::RequireDims("Linear::Forward", x.value(), -1, in_features_,
                        "input must be [B x in_features]");
  return Add(MatMul(x, weight_), bias_);
}

void Linear::InferRows(const float* x, int rows, float* out) const {
  GemmOverwriteRaw(x, weight_.value().data(), out, rows, in_features_,
                   out_features_);
  EwAddBiasRowRaw(out, bias_.value().data(), out, rows, out_features_);
}

}  // namespace lead::nn
