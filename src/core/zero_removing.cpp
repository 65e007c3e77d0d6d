#include "core/zero_removing.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esca::core {

double TileGrid::removing_ratio() const {
  const auto total = total_tiles();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(active_tiles()) / static_cast<double>(total);
}

std::int64_t TileGrid::find_tile(const Coord3& tile) const {
  const auto it = std::lower_bound(tiles_.begin(), tiles_.end(), tile);
  return it != tiles_.end() && *it == tile ? it - tiles_.begin() : -1;
}

ZeroRemoving::ZeroRemoving(Coord3 tile_size) : tile_size_(tile_size) {
  ESCA_REQUIRE(tile_size.x > 0 && tile_size.y > 0 && tile_size.z > 0,
               "tile size must be positive, got " << tile_size);
}

TileGrid ZeroRemoving::apply(const sparse::SparseTensor& tensor,
                             ZeroRemovingStats* stats) const {
  const Coord3& s = tile_size_;
  std::vector<Coord3> tiles;
  tiles.reserve(tensor.size());
  for (const Coord3& c : tensor.coords()) tiles.push_back({c.x / s.x, c.y / s.y, c.z / s.z});
  std::sort(tiles.begin(), tiles.end());
  tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());

  const Coord3& extent = tensor.spatial_extent();
  const Coord3 tiles_extent{(extent.x + s.x - 1) / s.x, (extent.y + s.y - 1) / s.y,
                            (extent.z + s.z - 1) / s.z};
  TileGrid grid(s, tiles_extent, std::move(tiles));
  if (stats != nullptr) {
    stats->tile_size = s;
    stats->active_tiles = grid.active_tiles();
    stats->total_tiles = grid.total_tiles();
    stats->removing_ratio = grid.removing_ratio();
    stats->active_sites = static_cast<std::int64_t>(tensor.size());
    stats->kept_voxels = grid.active_tiles() * s.volume();
    stats->total_voxels = extent.volume();
  }
  return grid;
}

}  // namespace esca::core
