#include "nn/sparse_conv.hpp"

#include "common/check.hpp"
#include "nn/init.hpp"
#include "sparse/compute.hpp"

namespace esca::nn {

SparseConv3d::SparseConv3d(int in_channels, int out_channels, int kernel_size, int stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride) {
  ESCA_REQUIRE(in_channels > 0 && out_channels > 0, "channel counts must be positive");
  ESCA_REQUIRE(kernel_size >= 1 && stride >= 1, "kernel/stride must be >= 1");
  weights_.assign(static_cast<std::size_t>(kernel_volume()) *
                      static_cast<std::size_t>(in_channels) *
                      static_cast<std::size_t>(out_channels),
                  0.0F);
}

void SparseConv3d::init_kaiming(Rng& rng) {
  kaiming_uniform(weights_, kernel_volume() * in_channels_, rng);
}

sparse::SparseTensor SparseConv3d::forward(const sparse::SparseTensor& input,
                                           const sparse::LayerGeometry& geometry,
                                           sparse::ComputeEngine* engine) const {
  ESCA_REQUIRE(input.channels() == in_channels_, "input channel mismatch");
  sparse::require_geometry(geometry, sparse::GeometryKind::kDownsample, kernel_size_, stride_,
                           input.size(), "strided conv");
  sparse::SparseTensor output(geometry.out_extent, out_channels_);
  output.reserve(geometry.out_coords.size());
  for (const Coord3& c : geometry.out_coords) output.add_site(c);
  sparse::ComputeEngine& e = engine != nullptr ? *engine : sparse::default_compute_engine();
  e.apply(input, geometry.blocked, weights_, output);
  return output;
}

InverseConv3d::InverseConv3d(int in_channels, int out_channels, int kernel_size, int stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride) {
  ESCA_REQUIRE(in_channels > 0 && out_channels > 0, "channel counts must be positive");
  ESCA_REQUIRE(kernel_size >= 1 && stride >= 1, "kernel/stride must be >= 1");
  weights_.assign(static_cast<std::size_t>(kernel_size * kernel_size * kernel_size) *
                      static_cast<std::size_t>(in_channels) *
                      static_cast<std::size_t>(out_channels),
                  0.0F);
}

void InverseConv3d::init_kaiming(Rng& rng) {
  kaiming_uniform(weights_, kernel_size_ * kernel_size_ * kernel_size_ * in_channels_, rng);
}

sparse::SparseTensor InverseConv3d::forward(const sparse::SparseTensor& input,
                                            const sparse::SparseTensor& target,
                                            const sparse::LayerGeometry& geometry,
                                            sparse::ComputeEngine* engine) const {
  ESCA_REQUIRE(input.channels() == in_channels_, "input channel mismatch");
  sparse::require_geometry(geometry, sparse::GeometryKind::kInverse, kernel_size_, stride_,
                           input.size(), "inverse conv");
  sparse::SparseTensor output = target.zeros_like(out_channels_);
  sparse::ComputeEngine& e = engine != nullptr ? *engine : sparse::default_compute_engine();
  e.apply(input, geometry.blocked, weights_, output);
  return output;
}

}  // namespace esca::nn
