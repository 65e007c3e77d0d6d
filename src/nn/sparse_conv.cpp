#include "nn/sparse_conv.hpp"

#include "common/check.hpp"
#include "nn/init.hpp"
#include "sparse/compute.hpp"

namespace esca::nn {

SparseConv3d::SparseConv3d(sparse::GeometryKind kind, int in_channels, int out_channels,
                           int kernel_size, int stride, bool bias)
    : kind_(kind),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      has_bias_(bias) {
  ESCA_REQUIRE(in_channels > 0 && out_channels > 0, "channel counts must be positive");
  ESCA_REQUIRE(kernel_size >= 1 && stride >= 1, "kernel/stride must be >= 1");
  ESCA_REQUIRE(kind != sparse::GeometryKind::kSubmanifold ||
                   (kernel_size % 2 == 1 && stride == 1),
               "submanifold convolution requires an odd kernel size and stride 1, got k"
                   << kernel_size << "/s" << stride);
  weights_.assign(static_cast<std::size_t>(kernel_volume()) *
                      static_cast<std::size_t>(in_channels) *
                      static_cast<std::size_t>(out_channels),
                  0.0F);
  bias_.assign(static_cast<std::size_t>(out_channels), 0.0F);
}

void SparseConv3d::init_kaiming(Rng& rng) {
  kaiming_uniform(weights_, kernel_volume() * in_channels_, rng);
  if (has_bias_) uniform_init(bias_, -0.01F, 0.01F, rng);
}

sparse::SparseTensor SparseConv3d::forward(const sparse::SparseTensor& input,
                                           const sparse::LayerGeometry& geometry,
                                           sparse::ComputeEngine* engine) const {
  sparse::require_geometry(geometry, kind_, kernel_size_, stride_, input.size(), "sparse conv");
  ESCA_REQUIRE(input.channels() == in_channels_,
               "input channels " << input.channels() << " != layer in_channels "
                                 << in_channels_);
  sparse::SparseTensor output = geometry.zero_output(out_channels_);
  sparse::ComputeEngine& e = engine != nullptr ? *engine : sparse::default_compute_engine();
  e.apply(input, geometry.blocked, weights_, output);
  if (has_bias_) {
    for (std::size_t row = 0; row < output.size(); ++row) {
      auto f = output.features(row);
      for (int c = 0; c < out_channels_; ++c) {
        f[static_cast<std::size_t>(c)] += bias_[static_cast<std::size_t>(c)];
      }
    }
  }
  return output;
}

}  // namespace esca::nn
