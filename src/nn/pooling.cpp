#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "sparse/rulebook.hpp"

namespace esca::nn {

MaxPool3d::MaxPool3d(int kernel_size, int stride) : kernel_size_(kernel_size), stride_(stride) {
  ESCA_REQUIRE(kernel_size >= 1 && stride >= 1, "kernel/stride must be >= 1");
}

sparse::SparseTensor MaxPool3d::forward(const sparse::SparseTensor& input,
                                        const sparse::LayerGeometry& geometry) const {
  sparse::require_geometry(geometry, sparse::GeometryKind::kDownsample, kernel_size_, stride_,
                           input.size(), "pooling");
  sparse::SparseTensor output = geometry.zero_output(input.channels());

  // Initialize active outputs to -inf so maxing over contributors is exact,
  // then take channelwise maxima over every (in -> out) rule.
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (std::size_t row = 0; row < output.size(); ++row) {
    auto f = output.features(row);
    std::fill(f.begin(), f.end(), kNegInf);
  }
  for (int o = 0; o < geometry.rulebook.kernel_volume(); ++o) {
    for (const sparse::Rule& rule : geometry.rulebook.rules_for(o)) {
      const auto in = input.features(static_cast<std::size_t>(rule.in_row));
      auto out = output.features(static_cast<std::size_t>(rule.out_row));
      for (std::size_t c = 0; c < in.size(); ++c) {
        out[c] = std::max(out[c], in[c]);
      }
    }
  }
  return output;
}

}  // namespace esca::nn
