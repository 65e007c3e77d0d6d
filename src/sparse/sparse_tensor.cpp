#include "sparse/sparse_tensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "voxel/morton.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::sparse {

SparseTensor::SparseTensor(Coord3 spatial_extent, int channels)
    : extent_(spatial_extent), channels_(channels) {
  ESCA_REQUIRE(extent_.x > 0 && extent_.y > 0 && extent_.z > 0,
               "spatial extent must be positive, got " << extent_);
  ESCA_REQUIRE(extent_.x <= voxel::kMortonMaxCoord && extent_.y <= voxel::kMortonMaxCoord &&
                   extent_.z <= voxel::kMortonMaxCoord,
               "spatial extent " << extent_ << " exceeds the 2^21 Morton range");
  ESCA_REQUIRE(channels > 0, "channels must be positive, got " << channels);
}

SparseTensor SparseTensor::from_voxel_grid(const voxel::VoxelGrid& grid, int channels) {
  ESCA_REQUIRE(grid.features.size() == grid.coords.size(),
               "voxel grid has " << grid.coords.size() << " voxels, " << grid.features.size()
                                 << " features");
  ESCA_REQUIRE(std::all_of(grid.coords.begin(), grid.coords.end(),
                           [&](const Coord3& c) { return in_bounds(c, grid.extent); }),
               "voxel outside extent " << grid.extent);
  SparseTensor t(grid.extent, channels);
  t.coords_ = grid.coords;
  ESCA_REQUIRE(t.index_.rebuild(t.coords_), "duplicate coordinate in voxel grid");
  const auto c = static_cast<std::size_t>(channels);
  t.features_.assign(t.coords_.size() * c, 0.0F);
  for (std::size_t row = 0; row < t.coords_.size(); ++row) {
    t.features_[row * c] = grid.features[row];
  }
  t.canonically_sorted_ = std::is_sorted(t.coords_.begin(), t.coords_.end());
  return t;
}

SparseTensor SparseTensor::from_coords(Coord3 spatial_extent, int channels,
                                       std::vector<Coord3> coords, CoordIndex index) {
  ESCA_REQUIRE(index.size() == coords.size(),
               "index covers " << index.size() << " sites, coords " << coords.size());
  SparseTensor t(spatial_extent, channels);
  t.coords_ = std::move(coords);
  t.index_ = std::move(index);
  t.features_.assign(t.coords_.size() * static_cast<std::size_t>(channels), 0.0F);
  // Row order is the caller's: canonical exactly when it already is.
  t.canonically_sorted_ = std::is_sorted(t.coords_.begin(), t.coords_.end());
  return t;
}

void SparseTensor::reserve(std::size_t n) {
  coords_.reserve(n);
  features_.reserve(n * static_cast<std::size_t>(channels_));
  index_.reserve(n);
}

std::int32_t SparseTensor::add_site(const Coord3& c) {
  ESCA_REQUIRE(in_bounds(c, extent_), "site " << c << " outside extent " << extent_);
  const auto row = static_cast<std::int32_t>(coords_.size());
  ESCA_REQUIRE(index_.insert(c, row), "site " << c << " already present");
  canonically_sorted_ = canonically_sorted_ && (coords_.empty() || coords_.back() < c);
  coords_.push_back(c);
  features_.resize(features_.size() + static_cast<std::size_t>(channels_), 0.0F);
  return row;
}

std::int32_t SparseTensor::add_site(const Coord3& c, std::span<const float> features) {
  ESCA_REQUIRE(features.size() == static_cast<std::size_t>(channels_),
               "feature size " << features.size() << " != channels " << channels_);
  const std::int32_t row = add_site(c);
  std::copy(features.begin(), features.end(),
            features_.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(row) *
                                    static_cast<std::size_t>(channels_)));
  return row;
}

std::int32_t SparseTensor::find(const Coord3& c) const {
  if (!in_bounds(c, extent_)) return -1;
  return index_.find(c);
}

std::span<float> SparseTensor::features(std::size_t row) {
  ESCA_ASSERT(row < coords_.size(), "row out of range");
  return {features_.data() + row * static_cast<std::size_t>(channels_),
          static_cast<std::size_t>(channels_)};
}

std::span<const float> SparseTensor::features(std::size_t row) const {
  ESCA_ASSERT(row < coords_.size(), "row out of range");
  return {features_.data() + row * static_cast<std::size_t>(channels_),
          static_cast<std::size_t>(channels_)};
}

float SparseTensor::feature(std::size_t row, int channel) const {
  ESCA_ASSERT(channel >= 0 && channel < channels_, "channel out of range");
  return features_[row * static_cast<std::size_t>(channels_) + static_cast<std::size_t>(channel)];
}

void SparseTensor::set_feature(std::size_t row, int channel, float value) {
  ESCA_ASSERT(channel >= 0 && channel < channels_, "channel out of range");
  features_[row * static_cast<std::size_t>(channels_) + static_cast<std::size_t>(channel)] =
      value;
}

SparseTensor SparseTensor::zeros_like(int channels) const {
  SparseTensor out(extent_, channels);
  out.coords_ = coords_;
  out.index_ = index_;
  out.canonically_sorted_ = canonically_sorted_;
  out.features_.assign(coords_.size() * static_cast<std::size_t>(channels), 0.0F);
  return out;
}

void SparseTensor::sort_canonical() {
  // add_site() keeps the index in sync, so an already-sorted tensor needs
  // neither the permutation nor an index rebuild.
  if (canonically_sorted_) return;

  std::vector<std::size_t> order(coords_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) { return coords_[a] < coords_[b]; });

  std::vector<Coord3> new_coords(coords_.size());
  std::vector<float> new_features(features_.size());
  const auto ch = static_cast<std::size_t>(channels_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    new_coords[i] = coords_[order[i]];
    std::copy_n(features_.begin() + static_cast<std::ptrdiff_t>(order[i] * ch), ch,
                new_features.begin() + static_cast<std::ptrdiff_t>(i * ch));
  }
  coords_ = std::move(new_coords);
  features_ = std::move(new_features);
  canonically_sorted_ = true;
  ESCA_CHECK(index_.rebuild(coords_), "duplicate coordinate while rebuilding index");
}

float SparseTensor::abs_max() const {
  float m = 0.0F;
  for (const float v : features_) m = std::max(m, std::fabs(v));
  return m;
}

float max_abs_diff(const SparseTensor& a, const SparseTensor& b) {
  ESCA_REQUIRE(a.size() == b.size() && a.channels() == b.channels(),
               "tensor shapes differ: " << a.size() << "x" << a.channels() << " vs " << b.size()
                                        << "x" << b.channels());
  float m = 0.0F;
  if (a.canonically_sorted() && b.canonically_sorted()) {
    // Rows of two canonically sorted tensors over one coordinate set align
    // 1:1 — compare row-wise without any per-row lookup.
    for (std::size_t i = 0; i < a.size(); ++i) {
      ESCA_REQUIRE(a.coord(i) == b.coord(i), "coordinate sets differ at " << a.coord(i));
    }
    const auto& fa = a.raw_features();
    const auto& fb = b.raw_features();
    for (std::size_t i = 0; i < fa.size(); ++i) {
      m = std::max(m, std::fabs(fa[i] - fb[i]));
    }
    return m;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int32_t j = b.find(a.coord(i));
    ESCA_REQUIRE(j >= 0, "coordinate sets differ at " << a.coord(i));
    const auto fa = a.features(i);
    const auto fb = b.features(static_cast<std::size_t>(j));
    for (std::size_t c = 0; c < fa.size(); ++c) {
      m = std::max(m, std::fabs(fa[c] - fb[c]));
    }
  }
  return m;
}

}  // namespace esca::sparse
