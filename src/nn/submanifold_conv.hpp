// Submanifold sparse convolution (Sub-Conv), FP32 gold model.
//
// Output sites == input sites; each output accumulates weights only over the
// occupied part of its K^3 neighbourhood (paper Fig. 2(b)). forward runs
// gather-GEMM-scatter over a prebuilt submanifold LayerGeometry; the direct
// neighbourhood walk it is cross-checked against lives in
// sparse/testing/reference.hpp.
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

class SubmanifoldConv3d {
 public:
  /// @param kernel_size odd (the submanifold constraint needs a center).
  SubmanifoldConv3d(int in_channels, int out_channels, int kernel_size, bool bias = false);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel_size() const { return kernel_size_; }
  int kernel_volume() const { return kernel_size_ * kernel_size_ * kernel_size_; }
  bool has_bias() const { return has_bias_; }

  /// Weights, layout [kernel_volume][in_channels][out_channels].
  std::span<float> weights() { return weights_; }
  std::span<const float> weights() const { return weights_; }
  std::span<float> bias() { return bias_; }
  std::span<const float> bias() const { return bias_; }

  void init_kaiming(Rng& rng);

  /// Run over `geometry`, the submanifold geometry of `input`'s sites at
  /// this kernel size (shared across all layers at one scale). Executes on
  /// `engine` (its arena); nullptr = the calling thread's default engine.
  sparse::SparseTensor forward(const sparse::SparseTensor& input,
                               const sparse::LayerGeometry& geometry,
                               sparse::ComputeEngine* engine = nullptr) const;

 private:
  void add_bias(sparse::SparseTensor& output) const;

  int in_channels_;
  int out_channels_;
  int kernel_size_;
  bool has_bias_;
  std::vector<float> weights_;
  std::vector<float> bias_;
};

}  // namespace esca::nn
