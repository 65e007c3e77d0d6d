// Strided sparse convolution (downsample) and its inverse (upsample).
//
// These are the non-submanifold layers of SS U-Net: "Convolution" dilates /
// relocates the active set (output site exists where any input site falls in
// its receptive field); "InverseConvolution"/deconvolution restores a
// previously recorded coordinate set (the matching encoder scale).
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
  SparseConv3d(int in_channels, int out_channels, int kernel_size, int stride);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel_size() const { return kernel_size_; }
  int stride() const { return stride_; }
  int kernel_volume() const { return kernel_size_ * kernel_size_ * kernel_size_; }

  std::span<float> weights() { return weights_; }
  std::span<const float> weights() const { return weights_; }
  void init_kaiming(Rng& rng);

  /// Run over `geometry`, the downsample geometry of `input`'s sites at
  /// this kernel and stride; nullptr engine = the calling thread's default.
  sparse::SparseTensor forward(const sparse::SparseTensor& input,
                               const sparse::LayerGeometry& geometry,
                               sparse::ComputeEngine* engine = nullptr) const;

 private:
  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  std::vector<float> weights_;
};

class InverseConv3d {
 public:
  InverseConv3d(int in_channels, int out_channels, int kernel_size, int stride);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel_size() const { return kernel_size_; }
  int stride() const { return stride_; }

  std::span<float> weights() { return weights_; }
  std::span<const float> weights() const { return weights_; }
  void init_kaiming(Rng& rng);

  /// Run over `geometry`, the inverse geometry of (input, target) at this
  /// kernel and stride; nullptr engine = the calling thread's default.
  /// @param target supplies the output coordinate set (its features are
  ///               ignored) — in U-Net, the encoder tensor at this scale.
  sparse::SparseTensor forward(const sparse::SparseTensor& input,
                               const sparse::SparseTensor& target,
                               const sparse::LayerGeometry& geometry,
                               sparse::ComputeEngine* engine = nullptr) const;

 private:
  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  std::vector<float> weights_;
};

}  // namespace esca::nn
