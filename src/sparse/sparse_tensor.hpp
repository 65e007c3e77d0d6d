// Sparse rank-3 spatial tensor: a set of active sites with C-channel features.
//
// This is the SSCN data structure: "nonzero activations" live at coords, all
// other sites are implicit zeros. Feature storage is row-major (site-major).
// Coordinate lookup goes through a Morton-ordered CoordIndex (binary search)
// rather than a hash table, so copying a tensor's geometry (zeros_like) is a
// flat array copy and the rulebook engine can stream its sorted entries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/coord_index.hpp"

namespace esca::voxel {
struct VoxelGrid;
}  // namespace esca::voxel

namespace esca::sparse {

class SparseTensor {
 public:
  /// Empty tensor over the given spatial extent (each axis at most 2^21,
  /// the Morton coordinate range).
  SparseTensor(Coord3 spatial_extent, int channels);

  /// Build a 1..C channel tensor from a voxel grid (channel 0 is the voxel
  /// feature; remaining channels start at zero). Rows keep the grid's order.
  static SparseTensor from_voxel_grid(const voxel::VoxelGrid& grid, int channels = 1);

  /// Zero tensor over an externally owned coordinate set and its prebuilt
  /// index (flat copies/moves — no re-sorting, no per-site insertion).
  /// `index` must map exactly coords[i] -> i; rows keep the given order.
  static SparseTensor from_coords(Coord3 spatial_extent, int channels,
                                  std::vector<Coord3> coords, CoordIndex index);

  const Coord3& spatial_extent() const { return extent_; }
  int channels() const { return channels_; }
  std::size_t size() const { return coords_.size(); }
  bool empty() const { return coords_.empty(); }

  /// Pre-allocate storage for n sites (coords, features and index).
  void reserve(std::size_t n);

  /// Append a site (must be new and in bounds); returns its row.
  std::int32_t add_site(const Coord3& c);
  /// Append a site with features (size must equal channels()).
  std::int32_t add_site(const Coord3& c, std::span<const float> features);

  /// Row of the site at c, or -1.
  std::int32_t find(const Coord3& c) const;
  bool contains(const Coord3& c) const { return find(c) >= 0; }

  const Coord3& coord(std::size_t row) const { return coords_[row]; }
  const std::vector<Coord3>& coords() const { return coords_; }

  /// The Morton-ordered coordinate index (rulebook-engine input). The
  /// reference is invalidated by add_site()/sort_canonical().
  const CoordIndex& index() const { return index_; }

  std::span<float> features(std::size_t row);
  std::span<const float> features(std::size_t row) const;
  float feature(std::size_t row, int channel) const;
  void set_feature(std::size_t row, int channel, float value);

  std::vector<float>& raw_features() { return features_; }
  const std::vector<float>& raw_features() const { return features_; }

  /// A tensor with the same coords/extent but `channels` zero channels.
  /// The coordinate index is shared by copy (no per-site re-indexing).
  SparseTensor zeros_like(int channels) const;

  /// Sort sites into canonical (z, y, x) order and rebuild the index.
  void sort_canonical();

  /// True when rows are in canonical (z, y, x) order — set by
  /// sort_canonical(), checked by from_coords() and preserved by in-order
  /// add_site()/zeros_like().
  bool canonically_sorted() const { return canonically_sorted_; }

  /// Max |feature| over all sites/channels (quantization calibration).
  float abs_max() const;

 private:
  Coord3 extent_;
  int channels_;
  bool canonically_sorted_{true};  ///< vacuously true while empty
  std::vector<Coord3> coords_;
  std::vector<float> features_;
  CoordIndex index_;
};

/// Max |a - b| over matching sites; requires identical coordinate sets.
/// When both tensors are canonically sorted, rows align and the per-row
/// coordinate lookup is skipped.
float max_abs_diff(const SparseTensor& a, const SparseTensor& b);

}  // namespace esca::sparse
