// Sparse 3-D convolution, FP32 gold model: one layer for every
// sparse::GeometryKind of the SS U-Net.
//
//   kSubmanifold  Sub-Conv: outputs == inputs; each output accumulates
//                 weights only over the occupied part of its K^3
//                 neighbourhood (paper Fig. 2(b)).
//   kDownsample   strided conv: an output cell exists where any input site
//                 falls in its receptive field.
//   kInverse      transposed conv: restores a recorded coordinate set (in
//                 U-Net, the matching encoder scale).
//
// The kinds differ only in where their output sites come from, and the
// LayerGeometry records those, so forward runs the same gather-GEMM-scatter
// for all of them. The direct neighbourhood walk Sub-Conv is cross-checked
// against lives in sparse/testing/reference.hpp.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse {
class ComputeEngine;
}  // namespace esca::sparse

namespace esca::nn {

class SparseConv3d {
 public:
  /// kSubmanifold needs an odd kernel (the submanifold constraint needs a
  /// centre) and stride 1.
  SparseConv3d(sparse::GeometryKind kind, int in_channels, int out_channels, int kernel_size,
               int stride = 1, bool bias = false);

  sparse::GeometryKind kind() const { return kind_; }
  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel_size() const { return kernel_size_; }
  int stride() const { return stride_; }
  int kernel_volume() const { return kernel_size_ * kernel_size_ * kernel_size_; }
  bool has_bias() const { return has_bias_; }

  /// Weights, layout [kernel_volume][in_channels][out_channels].
  std::span<float> weights() { return weights_; }
  std::span<const float> weights() const { return weights_; }
  std::span<float> bias() { return bias_; }
  std::span<const float> bias() const { return bias_; }

  void init_kaiming(Rng& rng);

  /// Run over `geometry`, a geometry of this layer's kind, kernel and
  /// stride built on `input`'s sites (a Sub-Conv geometry is shared by
  /// every layer at one scale). The output covers the geometry's output
  /// sites. Executes on `engine` (its arena); nullptr = the calling
  /// thread's default engine.
  sparse::SparseTensor forward(const sparse::SparseTensor& input,
                               const sparse::LayerGeometry& geometry,
                               sparse::ComputeEngine* engine = nullptr) const;

 private:
  sparse::GeometryKind kind_;
  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  bool has_bias_;
  std::vector<float> weights_;
  std::vector<float> bias_;
};

}  // namespace esca::nn
