// Rulebooks of sparse convolutions.
//
// A rulebook lists, for every kernel offset, the (input row, output row)
// pairs that contribute a MAC. It is the software equivalent of the paper's
// "matching operation": the SDMU tests must produce exactly these pairs.
// The geometry engine (sparse/geometry.hpp) builds them.
//
// Kernel offset indexing: for a K x K x K kernel with radius r = K/2, offset
// (dx, dy, dz) in [-r, r]^3 maps to
//   k = ((dz + r) * K + (dy + r)) * K + (dx + r)
// i.e. dx fastest — the same order the weight tensor is stored in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esca::sparse {

struct Rule {
  std::int32_t in_row;
  std::int32_t out_row;

  friend bool operator==(const Rule&, const Rule&) = default;
};

class RuleBook {
 public:
  explicit RuleBook(int kernel_volume) : rules_(static_cast<std::size_t>(kernel_volume)) {}

  int kernel_volume() const { return static_cast<int>(rules_.size()); }
  const std::vector<Rule>& rules_for(int offset_index) const {
    return rules_[static_cast<std::size_t>(offset_index)];
  }
  void add(int offset_index, Rule rule) {
    rules_[static_cast<std::size_t>(offset_index)].push_back(rule);
  }
  /// Pre-size one offset's rule list (splice/merge producers).
  void reserve(int offset_index, std::size_t n) {
    rules_[static_cast<std::size_t>(offset_index)].reserve(n);
  }

  /// Total number of (input, output) pairs == number of weight applications.
  std::int64_t total_rules() const;

 private:
  std::vector<std::vector<Rule>> rules_;
};

/// The same rules re-ordered for gather-GEMM-scatter execution: out-row
/// *block* major, kernel offset minor, original emission order within each
/// (block, offset) bucket (the bucketing is stable).
///
/// Block b owns output rows [b * kBlockRows, (b + 1) * kBlockRows). Because
/// every rule targeting an output row lives in that row's block, a compute
/// shard that owns a disjoint block range accumulates its rows completely —
/// no atomics, and per-row float accumulation order is exactly the order of
/// the offset-major scalar reference for any shard count.
///
/// Built once at geometry-build time (LayerGeometry::blocked) so per-frame
/// execution never sorts rules.
class BlockedRuleBook {
 public:
  /// Output rows per block. 64 rows x 128 channels x 4 B = 32 KiB — an
  /// accumulator stripe that stays cache-hot while every kernel offset of
  /// the block streams through it.
  static constexpr std::int32_t kBlockRows = 64;

  BlockedRuleBook() = default;

  /// Stable-bucket `rulebook`. `num_out_rows` is the size of the output the
  /// rules index into; every rule's out_row must be below it.
  BlockedRuleBook(const RuleBook& rulebook, std::size_t num_out_rows);

  bool empty() const { return rules_.empty(); }
  int kernel_volume() const { return volume_; }
  std::size_t num_out_rows() const { return num_out_rows_; }
  int num_blocks() const { return num_blocks_; }
  std::int64_t total_rules() const { return static_cast<std::int64_t>(rules_.size()); }

  /// Output rows [first, last) owned by block b.
  std::pair<std::int32_t, std::int32_t> block_rows(int block) const {
    const auto first = static_cast<std::int64_t>(block) * kBlockRows;
    const auto last =
        std::min<std::int64_t>(first + kBlockRows, static_cast<std::int64_t>(num_out_rows_));
    return {static_cast<std::int32_t>(first), static_cast<std::int32_t>(last)};
  }

  /// The (block, offset) bucket, original emission order.
  std::span<const Rule> rules(int block, int offset) const {
    const std::size_t slot = static_cast<std::size_t>(block) * static_cast<std::size_t>(volume_) +
                             static_cast<std::size_t>(offset);
    return {rules_.data() + spans_[slot], rules_.data() + spans_[slot + 1]};
  }

  /// All rules of one block (offset-major — the per-block execution order).
  std::span<const Rule> block_rules(int block) const {
    const std::size_t first = static_cast<std::size_t>(block) * static_cast<std::size_t>(volume_);
    const std::size_t last = first + static_cast<std::size_t>(volume_);
    return {rules_.data() + spans_[first], rules_.data() + spans_[last]};
  }

 private:
  int volume_{0};
  int num_blocks_{0};
  std::size_t num_out_rows_{0};
  std::vector<Rule> rules_;            ///< (block, offset, original order)
  std::vector<std::size_t> spans_;     ///< bucket boundaries, size num_blocks*volume+1
};

/// Kernel offset for a linear index (see file comment for the convention).
Coord3 kernel_offset(int offset_index, int kernel_size);
/// Inverse of kernel_offset.
int kernel_offset_index(const Coord3& offset, int kernel_size);

}  // namespace esca::sparse
