// Encoding scheme (paper §III.B): index mask + valid data.
//
// Each active tile is encoded as:
//  * an **index mask** — one bit per voxel of the halo-padded tile, laid out
//    column-major: a *column* is the run of voxels along the scan axis (z)
//    at one (x, y) position; bit (col, z) says whether that site is active;
//  * **valid data** — the nonzero activations, stored contiguously per
//    column in ascending z (so a column's window of activations is a dense
//    address range — exactly what the (A, A-B) address fragments index).
//
// The tile is padded by the kernel radius with a *halo* of neighbouring
// tiles' activations so cross-tile neighbourhoods are exact; halo sites are
// duplicated into each adjacent tile's encoding (accounted in the stats as
// extra DRAM traffic).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/arch_config.hpp"
#include "core/zero_removing.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::core {

class EncodedTile {
 public:
  EncodedTile(Coord3 tile_coord, Coord3 core_origin, Coord3 core_size, int kernel_radius);

  const Coord3& tile_coord() const { return tile_coord_; }
  const Coord3& core_origin() const { return core_origin_; }
  const Coord3& core_size() const { return core_size_; }
  const Coord3& padded_size() const { return padded_size_; }
  int kernel_radius() const { return radius_; }
  Coord3 padded_origin() const { return core_origin_ - Coord3{radius_, radius_, radius_}; }

  /// Number of (x, y) columns in the padded tile.
  int columns() const { return padded_size_.x * padded_size_.y; }
  /// Column length along the scan axis.
  int depth() const { return padded_size_.z; }
  int column_of(int x, int y) const { return x * padded_size_.y + y; }

  bool mask_at(int col, int z) const;
  void set_mask(int col, int z);
  /// `count` (at most 64) mask bits of a column from z on: bit i is (col, z+i).
  std::uint64_t column_bits(int col, int z, int count) const;

  /// Running nonzero count (mask popcount) of a column *strictly below* z —
  /// the value the state-index generator accumulates as index A.
  std::int32_t column_prefix(int col, int z) const;

  /// Activation storage: rows (into the layer input tensor) stored
  /// column-major, z-ascending. column_start is a size columns()+1 prefix.
  const std::vector<std::int32_t>& column_start() const { return column_start_; }
  const std::vector<std::int32_t>& site_rows() const { return site_rows_; }
  std::int32_t site_row(std::int32_t address) const {
    return site_rows_[static_cast<std::size_t>(address)];
  }

  std::int64_t mask_bits() const {
    return static_cast<std::int64_t>(columns()) * depth();
  }
  std::int64_t stored_sites() const { return static_cast<std::int64_t>(site_rows_.size()); }
  std::int32_t core_active_count() const { return core_active_count_; }

  // --- encoder-only mutators -------------------------------------------------
  void finalize(std::vector<std::int32_t> column_start, std::vector<std::int32_t> site_rows,
                std::int32_t core_active_count);

 private:
  Coord3 tile_coord_;
  Coord3 core_origin_;
  Coord3 core_size_;
  Coord3 padded_size_;
  int radius_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::int32_t> column_start_;
  std::vector<std::int32_t> site_rows_;
  std::int32_t core_active_count_{0};
};

struct EncodingStats {
  std::int64_t tiles{0};
  std::int64_t mask_bytes{0};       ///< index-mask footprint over all tiles
  std::int64_t stored_sites{0};     ///< activations stored incl. halo copies
  std::int64_t core_sites{0};       ///< unique activations (tile cores)
  std::int64_t halo_duplicates{0};  ///< stored_sites - core_sites
};

/// Encode every active tile of `tiles` from the geometry's site list: each
/// site joins every active tile whose halo-padded box holds it, so halos
/// cross tile boundaries without probing the padded volume.
class TileEncoder {
 public:
  explicit TileEncoder(const ArchConfig& config);

  std::vector<EncodedTile> encode(const sparse::SparseTensor& geometry,
                                  const TileGrid& tiles,
                                  EncodingStats* stats = nullptr) const;

 private:
  ArchConfig config_;
};

}  // namespace esca::core
