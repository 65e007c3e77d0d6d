// Mask judger (paper §III.C): decides per SRF whether the center site is
// active, i.e. whether a match group must be fetched at all.
#pragma once

#include <cstdint>

#include "core/encoding.hpp"

namespace esca::core {

enum class SrfState : std::uint8_t {
  kActive,     ///< center mask bit is 1: fetch the match group
  kNonActive,  ///< center is 0: skip the fetch-activations step
};

class MaskJudger {
 public:
  /// Judge the SRF centered at padded coords (cx, cy, cz) of the tile.
  static SrfState judge(const EncodedTile& tile, int cx, int cy, int cz);

  /// The first SRF at or after `scan_index`, in the SDMU's scan order over
  /// the tile core (z fastest, then y, then x), that judge() finds active;
  /// the core volume when none is.
  static std::int64_t next_active(const EncodedTile& tile, std::int64_t scan_index);
};

}  // namespace esca::core
