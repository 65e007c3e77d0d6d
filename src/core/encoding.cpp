#include "core/encoding.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace esca::core {

EncodedTile::EncodedTile(Coord3 tile_coord, Coord3 core_origin, Coord3 core_size,
                         int kernel_radius)
    : tile_coord_(tile_coord),
      core_origin_(core_origin),
      core_size_(core_size),
      radius_(kernel_radius) {
  ESCA_REQUIRE(core_size.x > 0 && core_size.y > 0 && core_size.z > 0,
               "tile core size must be positive");
  ESCA_REQUIRE(kernel_radius >= 0, "kernel radius must be non-negative");
  padded_size_ = core_size + Coord3{2 * radius_, 2 * radius_, 2 * radius_};
  const auto words =
      (static_cast<std::size_t>(mask_bits()) + 63) / 64;
  mask_.assign(words, 0);
}

bool EncodedTile::mask_at(int col, int z) const {
  ESCA_ASSERT(col >= 0 && col < columns() && z >= 0 && z < depth(), "mask index out of range");
  const auto bit = static_cast<std::size_t>(col) * static_cast<std::size_t>(depth()) +
                   static_cast<std::size_t>(z);
  return (mask_[bit / 64] >> (bit % 64)) & 1U;
}

void EncodedTile::set_mask(int col, int z) {
  ESCA_ASSERT(col >= 0 && col < columns() && z >= 0 && z < depth(), "mask index out of range");
  const auto bit = static_cast<std::size_t>(col) * static_cast<std::size_t>(depth()) +
                   static_cast<std::size_t>(z);
  mask_[bit / 64] |= (1ULL << (bit % 64));
}

std::uint64_t EncodedTile::column_bits(int col, int z, int count) const {
  ESCA_ASSERT(col >= 0 && col < columns() && z >= 0 && count >= 0 && count <= 64 &&
                  z + count <= depth(),
              "mask window out of range");
  if (count == 0) return 0;
  const auto bit = static_cast<std::size_t>(col) * static_cast<std::size_t>(depth()) +
                   static_cast<std::size_t>(z);
  const std::size_t word = bit / 64;
  const std::size_t shift = bit % 64;
  std::uint64_t bits = mask_[word] >> shift;
  if (shift + static_cast<std::size_t>(count) > 64) bits |= mask_[word + 1] << (64 - shift);
  return count == 64 ? bits : bits & ((1ULL << count) - 1);
}

std::int32_t EncodedTile::column_prefix(int col, int z) const {
  ESCA_ASSERT(col >= 0 && col < columns() && z >= 0 && z <= depth(),
              "prefix index out of range");
  std::int32_t count = 0;
  for (int from = 0; from < z; from += 64) {
    count += std::popcount(column_bits(col, from, std::min(64, z - from)));
  }
  return count;
}

void EncodedTile::finalize(std::vector<std::int32_t> column_start,
                           std::vector<std::int32_t> site_rows,
                           std::int32_t core_active_count) {
  ESCA_CHECK(column_start.size() == static_cast<std::size_t>(columns()) + 1,
             "column_start size mismatch");
  column_start_ = std::move(column_start);
  site_rows_ = std::move(site_rows);
  core_active_count_ = core_active_count;
  // The stored activation layout must agree with the mask.
  ESCA_CHECK(column_start_.back() == static_cast<std::int32_t>(site_rows_.size()),
             "column_start does not cover site_rows");
}

TileEncoder::TileEncoder(const ArchConfig& config) : config_(config) { config_.validate(); }

std::vector<EncodedTile> TileEncoder::encode(const sparse::SparseTensor& geometry,
                                             const TileGrid& tiles,
                                             EncodingStats* stats) const {
  const int radius = config_.kernel_radius();
  const Coord3 size = tiles.tile_size();
  const Coord3 last_tile = tiles.tiles_extent() - Coord3{1, 1, 1};
  std::vector<EncodedTile> encoded;
  encoded.reserve(tiles.tiles().size());
  for (const Coord3& tile : tiles.tiles()) {
    encoded.emplace_back(tile, tiles.origin(tile), size, radius);
  }

  // Each site joins every active tile whose padded box holds it (along an
  // axis, the tiles t with t * size - radius <= c < (t + 1) * size + radius)
  // at its mask bit there. Mask bits run column-major, z ascending inside a
  // column: the order the valid-data buffer is filled in (paper Fig. 4).
  struct Member {
    std::uint32_t tile;
    std::int32_t bit;
    std::int32_t row;
    auto operator<=>(const Member&) const = default;
  };
  std::vector<Member> members;
  const std::vector<Coord3>& coords = geometry.coords();
  for (std::size_t row = 0; row < coords.size(); ++row) {
    const Coord3& c = coords[row];
    const auto first = [&](int v, int s) { return std::max(0, v - radius) / s; };
    const auto last = [&](int v, int s, int l) { return std::min(l, (v + radius) / s); };
    for (int tx = first(c.x, size.x); tx <= last(c.x, size.x, last_tile.x); ++tx) {
      for (int ty = first(c.y, size.y); ty <= last(c.y, size.y, last_tile.y); ++ty) {
        for (int tz = first(c.z, size.z); tz <= last(c.z, size.z, last_tile.z); ++tz) {
          const std::int64_t found = tiles.find_tile({tx, ty, tz});
          if (found < 0) continue;
          const auto t = static_cast<std::uint32_t>(found);
          const EncodedTile& et = encoded[t];
          const Coord3 p = c - et.padded_origin();
          members.push_back({t, et.column_of(p.x, p.y) * et.depth() + p.z,
                             static_cast<std::int32_t>(row)});
        }
      }
    }
  }
  std::sort(members.begin(), members.end());

  auto member = members.begin();
  for (std::uint32_t t = 0; t < encoded.size(); ++t) {
    EncodedTile& et = encoded[t];
    std::vector<std::int32_t> column_start(static_cast<std::size_t>(et.columns()) + 1, 0);
    std::vector<std::int32_t> site_rows;
    std::int32_t core_active = 0;
    for (; member != members.end() && member->tile == t; ++member) {
      const int col = member->bit / et.depth();
      const Coord3 p{col / et.padded_size().y, col % et.padded_size().y, member->bit % et.depth()};
      et.set_mask(col, p.z);
      site_rows.push_back(member->row);
      ++column_start[static_cast<std::size_t>(col) + 1];
      if (in_bounds(p - Coord3{radius, radius, radius}, size)) ++core_active;
    }
    std::partial_sum(column_start.begin(), column_start.end(), column_start.begin());

    et.finalize(std::move(column_start), std::move(site_rows), core_active);
    if (stats != nullptr) {
      stats->tiles += 1;
      stats->mask_bytes += (et.mask_bits() + 7) / 8;
      stats->stored_sites += et.stored_sites();
      stats->core_sites += core_active;
      stats->halo_duplicates += et.stored_sites() - core_active;
    }
  }
  return encoded;
}

}  // namespace esca::core
