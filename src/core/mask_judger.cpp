#include "core/mask_judger.hpp"

#include <algorithm>
#include <bit>

namespace esca::core {

SrfState MaskJudger::judge(const EncodedTile& tile, int cx, int cy, int cz) {
  return tile.mask_at(tile.column_of(cx, cy), cz) ? SrfState::kActive : SrfState::kNonActive;
}

std::int64_t MaskJudger::next_active(const EncodedTile& tile, std::int64_t scan_index) {
  const Coord3 core = tile.core_size();
  const int r = tile.kernel_radius();
  const std::int64_t total = core.volume();
  while (scan_index < total) {
    const std::int64_t column = scan_index / core.z;
    const int col = tile.column_of(static_cast<int>(column / core.y) + r,
                                   static_cast<int>(column % core.y) + r);
    for (int cz = static_cast<int>(scan_index % core.z); cz < core.z;) {
      const int count = std::min(64, core.z - cz);
      const std::uint64_t bits = tile.column_bits(col, cz + r, count);
      if (bits != 0) return column * core.z + cz + std::countr_zero(bits);
      cz += count;
    }
    scan_index = (column + 1) * core.z;
  }
  return total;
}

}  // namespace esca::core
