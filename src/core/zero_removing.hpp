// Tile-based zero-removing strategy (paper §III.A, Table I).
//
// Partition the feature map into fixed-size tiles and drop the fully sparse
// ones. Sub-Conv outputs exist only at active sites, and every neighbourhood
// a Sub-Conv reads is covered by the halo of some active tile, so removal is
// lossless — asserted by tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::core {

/// The active tiles of a site set: the tile coordinates (site / tile size
/// per axis) that hold at least one site, in lexicographic (z, y, x) order —
/// the order the simulator processes them in. The extent need not be a
/// multiple of the tile size; edge tiles are logically padded.
class TileGrid {
 public:
  const Coord3& tile_size() const { return tile_size_; }
  const Coord3& tiles_extent() const { return tiles_extent_; }

  /// Total number of tiles covering the grid ("All Tiles" in Table I).
  std::int64_t total_tiles() const { return tiles_extent_.volume(); }
  /// Tiles holding at least one site ("Active Tiles").
  std::int64_t active_tiles() const { return static_cast<std::int64_t>(tiles_.size()); }
  /// Fraction of tiles removed ("Removing Ratio").
  double removing_ratio() const;

  const std::vector<Coord3>& tiles() const { return tiles_; }
  /// Voxel-space origin of a tile (tile coordinate x tile size).
  Coord3 origin(const Coord3& tile) const {
    return {tile.x * tile_size_.x, tile.y * tile_size_.y, tile.z * tile_size_.z};
  }
  /// Position of `tile` in tiles() (binary search), or -1 when inactive.
  std::int64_t find_tile(const Coord3& tile) const;

 private:
  friend class ZeroRemoving;
  TileGrid(Coord3 tile_size, Coord3 tiles_extent, std::vector<Coord3> tiles)
      : tile_size_(tile_size), tiles_extent_(tiles_extent), tiles_(std::move(tiles)) {}

  Coord3 tile_size_;
  Coord3 tiles_extent_;
  std::vector<Coord3> tiles_;
};

struct ZeroRemovingStats {
  Coord3 tile_size;
  std::int64_t active_tiles{0};
  std::int64_t total_tiles{0};
  double removing_ratio{0.0};
  std::int64_t active_sites{0};
  /// Voxels kept for processing (active tiles x tile volume) vs full grid.
  std::int64_t kept_voxels{0};
  std::int64_t total_voxels{0};
};

class ZeroRemoving {
 public:
  explicit ZeroRemoving(Coord3 tile_size);

  /// Tile the tensor's sites and keep the active tiles only: one pass over
  /// the coordinates, one sort and one unique.
  TileGrid apply(const sparse::SparseTensor& tensor, ZeroRemovingStats* stats = nullptr) const;

  const Coord3& tile_size() const { return tile_size_; }

 private:
  Coord3 tile_size_;
};

}  // namespace esca::core
