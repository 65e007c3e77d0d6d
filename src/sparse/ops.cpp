#include "sparse/ops.hpp"

#include "common/check.hpp"

// Keep the order-defining reference free of FMA contraction for the same
// reason as the engine (sparse/compute.cpp): the bit-identity contract
// between the two must not depend on the host compiler's -march.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace esca::sparse {

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

}  // namespace esca::sparse
