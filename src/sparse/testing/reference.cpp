#include "sparse/testing/reference.hpp"

#include <cstdint>
#include <vector>

#include "common/check.hpp"

// Keep the order-defining float reference free of FMA contraction for the
// same reason as the engine (sparse/compute.cpp): the bit-identity contract
// between the two must not depend on the host compiler's -march.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace esca::sparse::oracle {

void apply_rulebook_reference(const SparseTensor& input, const RuleBook& rulebook,
                              std::span<const float> weights, SparseTensor& output) {
  const int cin = input.channels();
  const int cout = output.channels();
  const auto volume = static_cast<std::size_t>(rulebook.kernel_volume());
  ESCA_REQUIRE(weights.size() == volume * static_cast<std::size_t>(cin) *
                                     static_cast<std::size_t>(cout),
               "weight size mismatch: got " << weights.size() << ", expected "
                                            << volume * static_cast<std::size_t>(cin) *
                                                   static_cast<std::size_t>(cout));

  for (int o = 0; o < rulebook.kernel_volume(); ++o) {
    const float* w = weights.data() + static_cast<std::size_t>(o) *
                                          static_cast<std::size_t>(cin) *
                                          static_cast<std::size_t>(cout);
    for (const Rule& rule : rulebook.rules_for(o)) {
      const auto in = input.features(static_cast<std::size_t>(rule.in_row));
      const auto out = output.features(static_cast<std::size_t>(rule.out_row));
      for (int ci = 0; ci < cin; ++ci) {
        const float a = in[static_cast<std::size_t>(ci)];
        if (a == 0.0F) continue;
        const float* wrow = w + static_cast<std::size_t>(ci) * static_cast<std::size_t>(cout);
        for (int co = 0; co < cout; ++co) {
          out[static_cast<std::size_t>(co)] += a * wrow[co];
        }
      }
    }
  }
}

SparseTensor forward_naive(const nn::SparseConv3d& conv, const SparseTensor& input) {
  ESCA_REQUIRE(conv.kind() == GeometryKind::kSubmanifold,
               "the neighbourhood walk is Sub-Conv's, got a " << to_string(conv.kind())
                                                              << " conv");
  ESCA_REQUIRE(input.channels() == conv.in_channels(), "input channel mismatch");
  const auto cin = static_cast<std::size_t>(conv.in_channels());
  const auto cout = static_cast<std::size_t>(conv.out_channels());
  const std::span<const float> weights = conv.weights();
  const std::span<const float> bias = conv.bias();
  SparseTensor output = input.zeros_like(conv.out_channels());
  for (std::size_t j = 0; j < input.size(); ++j) {
    auto out = output.features(j);
    for (int o = 0; o < conv.kernel_volume(); ++o) {
      const std::int32_t i = input.find(input.coord(j) + kernel_offset(o, conv.kernel_size()));
      if (i < 0) continue;
      const auto in = input.features(static_cast<std::size_t>(i));
      const float* w = weights.data() + static_cast<std::size_t>(o) * cin * cout;
      for (std::size_t ci = 0; ci < cin; ++ci) {
        for (std::size_t co = 0; co < cout; ++co) out[co] += in[ci] * w[ci * cout + co];
      }
    }
    if (conv.has_bias()) {
      for (std::size_t co = 0; co < cout; ++co) out[co] += bias[co];
    }
  }
  return output;
}

quant::QSparseTensor forward_reference(const quant::QuantizedConv& layer,
                                       const quant::QSparseTensor& input,
                                       const LayerGeometry& geometry) {
  ESCA_REQUIRE(input.channels() == layer.in_channels(), "input channel mismatch");
  require_geometry(geometry, layer.kind(), layer.kernel_size(), layer.stride(), input.size(),
                   "reference conv");

  const RuleBook& rulebook = geometry.rulebook;
  const auto cin = static_cast<std::size_t>(layer.in_channels());
  const auto cout = static_cast<std::size_t>(layer.out_channels());
  std::vector<std::int64_t> acc(geometry.out_coords.size() * cout, 0);
  for (int o = 0; o < rulebook.kernel_volume(); ++o) {
    const std::int8_t* w = layer.weights().data() + static_cast<std::size_t>(o) * cin * cout;
    for (const Rule& rule : rulebook.rules_for(o)) {
      const auto in = input.features(static_cast<std::size_t>(rule.in_row));
      std::int64_t* out = acc.data() + static_cast<std::size_t>(rule.out_row) * cout;
      for (std::size_t ci = 0; ci < cin; ++ci) {
        const std::int32_t a = in[ci];
        if (a == 0) continue;
        const std::int8_t* wrow = w + ci * cout;
        for (std::size_t co = 0; co < cout; ++co) {
          out[co] += static_cast<std::int64_t>(a) * wrow[co];
        }
      }
    }
  }

  quant::QSparseTensor output = quant::QSparseTensor::from_coords(
      geometry.out_extent, layer.out_channels(), quant::QuantParams{layer.out_scale()},
      geometry.out_coords, geometry.out_index);
  for (std::size_t row = 0; row < output.size(); ++row) {
    auto dst = output.features(row);
    for (std::size_t co = 0; co < cout; ++co) {
      dst[co] = quant::requantize(acc[row * cout + co], layer.requant_scale()[co],
                                  layer.requant_shift()[co], layer.relu());
    }
  }
  return output;
}

}  // namespace esca::sparse::oracle
