// State index generator and address generator (paper §III.C, Fig. 7).
//
// For each active SRF and each of its K^2 columns, the state index is the
// pair (A, B):
//   A — the running count of nonzero activations in that column up to the
//       *end* of the current window (accumulated while the mask streams by);
//   B — the count of nonzeros inside the window (0 when the SRF is skipped).
// The address generator turns (A, B) into the address fragment [A-B, A):
// because valid data is stored per column in scan order, those are exactly
// the activation-buffer addresses of the window's activations.
#pragma once

#include <cstdint>
#include <span>

#include "core/encoding.hpp"
#include "core/match.hpp"

namespace esca::core {

struct StateIndex {
  std::int32_t a{0};  ///< cumulative nonzeros through window end
  std::int32_t b{0};  ///< nonzeros inside the window

  friend bool operator==(const StateIndex&, const StateIndex&) = default;
};

struct AddressFragment {
  std::int32_t begin{0};  ///< A - B (inclusive), relative to the column base
  std::int32_t end{0};    ///< A (exclusive)

  std::int32_t length() const { return end - begin; }
  friend bool operator==(const AddressFragment&, const AddressFragment&) = default;
};

class StateIndexGenerator {
 public:
  explicit StateIndexGenerator(int kernel_size);

  int kernel_size() const { return kernel_size_; }
  int radius() const { return kernel_size_ / 2; }

  /// State index of one column for the SRF window centered at cz.
  /// Windows are clipped to the column extent at tile borders.
  StateIndex generate(const EncodedTile& tile, int col, int cz) const;

  /// The (A, A-B) fragment for a column; empty when B == 0.
  static AddressFragment to_fragment(const StateIndex& s) { return {s.a - s.b, s.a}; }

  /// All matches contributed by one column of an active SRF, in ascending-z
  /// (== ascending-address) order, written to `out` (room for kernel_size()
  /// matches); returns how many. (dx, dy) locate the column relative to the
  /// center; weight indices follow the kernel layout convention.
  int column_matches(const EncodedTile& tile, int cx, int cy, int cz, int dx, int dy,
                     std::int32_t out_row, std::span<Match> out) const;

 private:
  int kernel_size_;
};

}  // namespace esca::core
