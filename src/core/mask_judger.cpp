#include "core/mask_judger.hpp"

namespace esca::core {

SrfState MaskJudger::judge(const EncodedTile& tile, int cx, int cy, int cz) {
  return tile.mask_at(tile.column_of(cx, cy), cz) ? SrfState::kActive : SrfState::kNonActive;
}

}  // namespace esca::core
