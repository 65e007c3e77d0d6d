// Quantized sparse convolution — the bit-exact integer gold model, for
// every sparse::GeometryKind (Sub-Conv, strided, inverse).
//
// This is the functional contract every backend's layer outputs are
// verified against: INT16 activations x INT8 weights, 64-bit accumulation
// (DSP48 accumulators are 48-bit; 64 models them with headroom), then a
// per-output-channel requantization that folds BatchNorm and ReLU:
//
//   acc[co]  = sum over matches/in-channels of a_q * w_q          (integer)
//   y        = acc * (s_in * s_w * bn_scale[co]) + bn_shift[co]   (float)
//   q_out    = clamp(round(y / s_out)), ReLU clamps at 0 first
//
// The kinds differ only in the rulebook and the output sites, both of which
// the LayerGeometry carries, so one accumulate + requantize runs them all.
// The requantization arithmetic is implemented exactly once (requantize())
// and shared by the compute-engine forward every backend executes and the
// scalar reference in sparse/testing/reference.hpp, so the two agree bit for
// bit whenever their integer accumulators do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/batch_norm.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qtensor.hpp"
#include "quant/quantizer.hpp"
#include "sparse/geometry.hpp"

namespace esca::sparse {
class ComputeEngine;
}  // namespace esca::sparse

namespace esca::quant {

/// Shared requantization primitive (see file comment). Saturates to
/// [-kInt16Max, kInt16Max] for any accumulator.
std::int16_t requantize(std::int64_t acc, float scale, float shift, bool relu);

/// Weight quantization granularity. Per-tensor is what the paper deploys;
/// per-output-channel is the standard INT8 accuracy upgrade — it changes
/// only the requantization constants, so the accelerator datapath is
/// untouched (the CC already requantizes per output channel).
enum class WeightGranularity : std::uint8_t { kPerTensor, kPerChannel };

class QuantizedConv {
 public:
  /// Quantize a float sparse conv of any kind, folding the optional
  /// following BatchNorm and ReLU.
  ///
  /// @param in_scale   activation scale of the layer input.
  /// @param out_scale  activation scale of the layer output (calibrated on
  ///                   the float model's post-BN/ReLU output).
  static QuantizedConv from_float(const nn::SparseConv3d& conv, const nn::BatchNorm* bn,
                                  bool relu, float in_scale, float out_scale,
                                  std::string name = {},
                                  WeightGranularity granularity = WeightGranularity::kPerTensor);

  const std::string& name() const { return name_; }
  sparse::GeometryKind kind() const { return kind_; }
  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel_size() const { return kernel_size_; }
  int stride() const { return stride_; }
  int kernel_volume() const { return kernel_size_ * kernel_size_ * kernel_size_; }
  bool relu() const { return relu_; }
  float in_scale() const { return in_scale_; }
  float out_scale() const { return out_scale_; }
  /// Per-tensor: one value; per-channel: one per output channel.
  const std::vector<float>& weight_scales() const { return weight_scales_; }
  WeightGranularity granularity() const { return granularity_; }

  /// INT8 weights, layout [kernel_volume][in_channels][out_channels].
  const std::vector<std::int8_t>& weights() const { return weights_; }
  std::int8_t weight(int offset_index, int ci, int co) const {
    return weights_[(static_cast<std::size_t>(offset_index) *
                         static_cast<std::size_t>(in_channels_) +
                     static_cast<std::size_t>(ci)) *
                        static_cast<std::size_t>(out_channels_) +
                    static_cast<std::size_t>(co)];
  }

  /// Per-output-channel requant parameters.
  const std::vector<float>& requant_scale() const { return requant_scale_; }
  const std::vector<float>& requant_shift() const { return requant_shift_; }

  /// Integer gold forward over `geometry`, a geometry of this layer's kind,
  /// kernel and stride built on `input`'s sites (e.g. the Plan-cached
  /// LayerGeometry). The output covers the geometry's output sites and
  /// extent at this layer's out_scale. Executes gather-GEMM-scatter on
  /// `engine` (nullptr = the calling thread's default engine): the INT64
  /// accumulator lives in the engine's arena, so steady-state frames
  /// allocate nothing in the accumulate path.
  QSparseTensor forward(const QSparseTensor& input, const sparse::LayerGeometry& geometry,
                        sparse::ComputeEngine* engine = nullptr) const;

  /// Total weight bytes (INT8) — DRAM-traffic input for the perf model.
  std::int64_t weight_bytes() const { return static_cast<std::int64_t>(weights_.size()); }

 private:
  QuantizedConv() = default;

  std::string name_;
  sparse::GeometryKind kind_{sparse::GeometryKind::kSubmanifold};
  int in_channels_{0};
  int out_channels_{0};
  int kernel_size_{0};
  int stride_{1};
  bool relu_{false};
  float in_scale_{1.0F};
  float out_scale_{1.0F};
  WeightGranularity granularity_{WeightGranularity::kPerTensor};
  std::vector<float> weight_scales_;  ///< size 1 (per-tensor) or Cout
  std::vector<std::int8_t> weights_;
  std::vector<float> requant_scale_;
  std::vector<float> requant_shift_;
};

}  // namespace esca::quant
