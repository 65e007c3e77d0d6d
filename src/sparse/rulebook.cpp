#include "sparse/rulebook.hpp"

#include "common/check.hpp"

namespace esca::sparse {

std::int64_t RuleBook::total_rules() const {
  std::int64_t n = 0;
  for (const auto& v : rules_) n += static_cast<std::int64_t>(v.size());
  return n;
}

BlockedRuleBook::BlockedRuleBook(const RuleBook& rulebook, std::size_t num_out_rows)
    : volume_(rulebook.kernel_volume()),
      num_blocks_(static_cast<int>((num_out_rows + kBlockRows - 1) / kBlockRows)),
      num_out_rows_(num_out_rows) {
  const auto volume = static_cast<std::size_t>(volume_);
  const std::size_t slots = static_cast<std::size_t>(num_blocks_) * volume;
  std::vector<std::size_t> counts(slots, 0);
  for (int o = 0; o < volume_; ++o) {
    for (const Rule& r : rulebook.rules_for(o)) {
      ESCA_REQUIRE(r.out_row >= 0 && static_cast<std::size_t>(r.out_row) < num_out_rows,
                   "rule out_row " << r.out_row << " outside output of " << num_out_rows
                                   << " rows");
      ++counts[static_cast<std::size_t>(r.out_row / kBlockRows) * volume +
               static_cast<std::size_t>(o)];
    }
  }

  spans_.assign(slots + 1, 0);
  for (std::size_t s = 0; s < slots; ++s) spans_[s + 1] = spans_[s] + counts[s];
  rules_.resize(spans_[slots]);

  // Stable placement: walking each offset's list in order fills every
  // (block, offset) bucket in the original emission order.
  std::vector<std::size_t> cursor(spans_.begin(), spans_.end() - 1);
  for (int o = 0; o < volume_; ++o) {
    for (const Rule& r : rulebook.rules_for(o)) {
      const std::size_t slot = static_cast<std::size_t>(r.out_row / kBlockRows) * volume +
                               static_cast<std::size_t>(o);
      rules_[cursor[slot]++] = r;
    }
  }
}

Coord3 kernel_offset(int offset_index, int kernel_size) {
  ESCA_REQUIRE(kernel_size >= 1, "kernel size must be >= 1");
  const int k = kernel_size;
  const int r = k / 2;
  ESCA_REQUIRE(offset_index >= 0 && offset_index < k * k * k, "offset index out of range");
  const int dx = offset_index % k - r;
  const int dy = (offset_index / k) % k - r;
  const int dz = offset_index / (k * k) - r;
  return {dx, dy, dz};
}

int kernel_offset_index(const Coord3& offset, int kernel_size) {
  const int k = kernel_size;
  const int r = k / 2;
  ESCA_REQUIRE(offset.x >= -r && offset.x <= r && offset.y >= -r && offset.y <= r &&
                   offset.z >= -r && offset.z <= r,
               "offset " << offset << " outside kernel " << k);
  return ((offset.z + r) * k + (offset.y + r)) * k + (offset.x + r);
}

}  // namespace esca::sparse
