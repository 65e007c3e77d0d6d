#include "quant/qconv.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"

namespace esca::quant {

std::int16_t requantize(std::int64_t acc, float scale, float shift, bool relu) {
  float y = static_cast<float>(acc) * scale + shift;
  if (relu && y < 0.0F) y = 0.0F;
  // Saturate before the cast: converting a float beyond the target range
  // is undefined behaviour.
  constexpr auto kLimit = static_cast<float>(kInt16Max);
  return static_cast<std::int16_t>(std::clamp(std::nearbyint(y), -kLimit, kLimit));
}

QuantizedConv QuantizedConv::from_float(const nn::SparseConv3d& conv, const nn::BatchNorm* bn,
                                        bool relu, float in_scale, float out_scale,
                                        std::string name, WeightGranularity granularity) {
  ESCA_REQUIRE(in_scale > 0.0F && out_scale > 0.0F, "activation scales must be positive");
  ESCA_REQUIRE(!conv.has_bias() || bn == nullptr,
               "bias+BN folding is not supported; fold the bias into BN shift first");

  QuantizedConv q;
  q.name_ = std::move(name);
  q.kind_ = conv.kind();
  q.in_channels_ = conv.in_channels();
  q.out_channels_ = conv.out_channels();
  q.kernel_size_ = conv.kernel_size();
  q.stride_ = conv.stride();
  q.relu_ = relu;
  q.in_scale_ = in_scale;
  q.out_scale_ = out_scale;
  q.granularity_ = granularity;

  const auto weights = conv.weights();
  const auto n_cout = static_cast<std::size_t>(q.out_channels_);
  if (granularity == WeightGranularity::kPerTensor) {
    float m = 0.0F;
    for (const float w : weights) m = std::max(m, std::fabs(w));
    const QuantParams params = calibrate(m, kInt8Max);
    q.weight_scales_.assign(1, params.scale);
    q.weights_ = quantize_int8(weights, params);
  } else {
    // Per-output-channel: calibrate each OC slice W[*][*][co] separately.
    std::vector<float> abs_max(n_cout, 0.0F);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const std::size_t co = i % n_cout;
      abs_max[co] = std::max(abs_max[co], std::fabs(weights[i]));
    }
    q.weight_scales_.resize(n_cout);
    std::vector<QuantParams> params(n_cout);
    for (std::size_t co = 0; co < n_cout; ++co) {
      params[co] = calibrate(abs_max[co], kInt8Max);
      q.weight_scales_[co] = params[co].scale;
    }
    q.weights_.resize(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      q.weights_[i] =
          static_cast<std::int8_t>(quantize_value(weights[i], params[i % n_cout], kInt8Max));
    }
  }

  // Fold BN (identity when absent) into the requant affine.
  const auto cout = static_cast<std::size_t>(q.out_channels_);
  std::vector<float> bn_scale(cout, 1.0F);
  std::vector<float> bn_shift(cout, 0.0F);
  if (bn != nullptr) {
    ESCA_REQUIRE(bn->channels() == q.out_channels_, "BN channel mismatch");
    const nn::BatchNorm::Affine affine = bn->folded();
    bn_scale = affine.scale;
    bn_shift = affine.shift;
  }
  if (conv.has_bias()) {
    const auto bias = conv.bias();
    for (std::size_t c = 0; c < cout; ++c) bn_shift[c] += bias[c];
  }

  q.requant_scale_.resize(cout);
  q.requant_shift_.resize(cout);
  for (std::size_t c = 0; c < cout; ++c) {
    const float w_scale = granularity == WeightGranularity::kPerTensor
                              ? q.weight_scales_.front()
                              : q.weight_scales_[c];
    q.requant_scale_[c] = in_scale * w_scale * bn_scale[c] / out_scale;
    q.requant_shift_[c] = bn_shift[c] / out_scale;
  }
  return q;
}

QSparseTensor QuantizedConv::forward(const QSparseTensor& input,
                                     const sparse::LayerGeometry& geometry,
                                     sparse::ComputeEngine* engine) const {
  ESCA_REQUIRE(input.channels() == in_channels_, "input channel mismatch");
  sparse::require_geometry(geometry, kind_, kernel_size_, stride_, input.size(),
                           "quantized conv");
  sparse::ComputeEngine& e = engine != nullptr ? *engine : sparse::default_compute_engine();
  const std::span<const std::int64_t> acc =
      e.accumulate(input.raw_features(), in_channels_, geometry.blocked, weights_,
                   out_channels_);
  const auto cout = static_cast<std::size_t>(out_channels_);
  QSparseTensor output =
      QSparseTensor::from_coords(geometry.out_extent, out_channels_, QuantParams{out_scale_},
                                 geometry.out_coords, geometry.out_index);
  for (std::size_t row = 0; row < output.size(); ++row) {
    auto dst = output.features(row);
    const std::int64_t* src = acc.data() + row * cout;
    for (std::size_t co = 0; co < cout; ++co) {
      dst[co] = requantize(src[co], requant_scale_[co], requant_shift_[co], relu_);
    }
  }
  return output;
}

}  // namespace esca::quant
