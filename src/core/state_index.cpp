#include "core/state_index.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "sparse/rulebook.hpp"

namespace esca::core {

StateIndexGenerator::StateIndexGenerator(int kernel_size) : kernel_size_(kernel_size) {
  ESCA_REQUIRE(kernel_size >= 1 && kernel_size % 2 == 1,
               "kernel size must be odd, got " << kernel_size);
}

StateIndex StateIndexGenerator::generate(const EncodedTile& tile, int col, int cz) const {
  const int r = radius();
  const int lo = std::max(0, cz - r);
  const int hi = std::min(tile.depth(), cz + r + 1);  // exclusive
  StateIndex s;
  s.a = tile.column_prefix(col, hi);
  s.b = s.a - tile.column_prefix(col, lo);
  return s;
}

int StateIndexGenerator::column_matches(const EncodedTile& tile, int cx, int cy, int cz, int dx,
                                        int dy, std::int32_t out_row,
                                        std::span<Match> out) const {
  const int r = radius();
  const int x = cx + dx;
  const int y = cy + dy;
  ESCA_ASSERT(x >= 0 && x < tile.padded_size().x && y >= 0 && y < tile.padded_size().y,
              "column outside padded tile");
  ESCA_REQUIRE(out.size() >= static_cast<std::size_t>(kernel_size_),
               "column_matches needs room for " << kernel_size_ << " matches");
  const int col = tile.column_of(x, y);
  const AddressFragment frag = to_fragment(generate(tile, col, cz));

  const std::int32_t base = tile.column_start()[static_cast<std::size_t>(col)];
  // Recover each activation's dz from the mask window: the i-th set bit in
  // [cz-r, cz+r] corresponds to address base + (A - B) + i.
  const int lo = std::max(0, cz - r);
  const int hi = std::min(tile.depth(), cz + r + 1);
  const auto column_index = static_cast<std::int16_t>((dy + r) * kernel_size_ + (dx + r));
  int offset = 0;
  for (std::uint64_t window = tile.column_bits(col, lo, hi - lo); window != 0;
       window &= window - 1) {
    const int dz = lo + std::countr_zero(window) - cz;
    const int widx = sparse::kernel_offset_index({dx, dy, dz}, kernel_size_);
    out[static_cast<std::size_t>(offset)] =
        Match{tile.site_row(base + frag.begin + offset), static_cast<std::int16_t>(widx),
              column_index, out_row};
    ++offset;
  }
  ESCA_CHECK(offset == frag.length(), "mask window and address fragment disagree: "
                                          << offset << " vs " << frag.length());
  return offset;
}

}  // namespace esca::core
