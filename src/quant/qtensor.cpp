#include "quant/qtensor.hpp"

#include <utility>

#include "common/check.hpp"
#include "voxel/morton.hpp"

namespace esca::quant {

QSparseTensor::QSparseTensor(Coord3 spatial_extent, int channels, QuantParams params)
    : extent_(spatial_extent), channels_(channels), params_(params) {
  ESCA_REQUIRE(extent_.x > 0 && extent_.y > 0 && extent_.z > 0, "extent must be positive");
  ESCA_REQUIRE(extent_.x <= voxel::kMortonMaxCoord && extent_.y <= voxel::kMortonMaxCoord &&
                   extent_.z <= voxel::kMortonMaxCoord,
               "extent " << extent_ << " exceeds the 2^21 Morton range");
  ESCA_REQUIRE(channels > 0, "channels must be positive");
  ESCA_REQUIRE(params.scale > 0.0F, "scale must be positive");
}

QSparseTensor QSparseTensor::from_float(const sparse::SparseTensor& t, QuantParams params) {
  QSparseTensor q(t.spatial_extent(), t.channels(), params);
  q.coords_ = t.coords();
  q.index_ = t.index();
  const std::vector<float>& src = t.raw_features();
  q.features_.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    q.features_[i] = static_cast<std::int16_t>(quantize_value(src[i], params, kInt16Max));
  }
  return q;
}

QSparseTensor QSparseTensor::from_float_calibrated(const sparse::SparseTensor& t) {
  return from_float(t, calibrate(t.abs_max(), kInt16Max));
}

QSparseTensor QSparseTensor::from_coords(Coord3 spatial_extent, int channels,
                                         QuantParams params, std::vector<Coord3> coords,
                                         sparse::CoordIndex index) {
  ESCA_REQUIRE(index.size() == coords.size(),
               "index covers " << index.size() << " sites, coords " << coords.size());
  QSparseTensor out(spatial_extent, channels, params);
  out.coords_ = std::move(coords);
  out.index_ = std::move(index);
  out.features_.assign(out.coords_.size() * static_cast<std::size_t>(channels), 0);
  return out;
}

std::int32_t QSparseTensor::add_site(const Coord3& c) {
  ESCA_REQUIRE(in_bounds(c, extent_), "site " << c << " outside extent " << extent_);
  const auto row = static_cast<std::int32_t>(coords_.size());
  ESCA_REQUIRE(index_.insert(c, row), "site " << c << " already present");
  coords_.push_back(c);
  features_.resize(features_.size() + static_cast<std::size_t>(channels_), 0);
  return row;
}

sparse::SparseTensor QSparseTensor::sites() const {
  return sparse::SparseTensor::from_coords(extent_, 1, coords_, index_);
}

std::int32_t QSparseTensor::find(const Coord3& c) const {
  if (!in_bounds(c, extent_)) return -1;
  return index_.find(c);
}

std::span<std::int16_t> QSparseTensor::features(std::size_t row) {
  ESCA_ASSERT(row < coords_.size(), "row out of range");
  return {features_.data() + row * static_cast<std::size_t>(channels_),
          static_cast<std::size_t>(channels_)};
}

std::span<const std::int16_t> QSparseTensor::features(std::size_t row) const {
  ESCA_ASSERT(row < coords_.size(), "row out of range");
  return {features_.data() + row * static_cast<std::size_t>(channels_),
          static_cast<std::size_t>(channels_)};
}

sparse::SparseTensor QSparseTensor::to_float() const {
  sparse::SparseTensor t = sparse::SparseTensor::from_coords(extent_, channels_, coords_, index_);
  std::vector<float>& dst = t.raw_features();
  for (std::size_t i = 0; i < features_.size(); ++i) dst[i] = params_.dequantize(features_[i]);
  return t;
}

bool operator==(const QSparseTensor& a, const QSparseTensor& b) {
  if (!(a.extent_ == b.extent_) || a.params_.scale != b.params_.scale ||
      a.channels_ != b.channels_ || a.coords_.size() != b.coords_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.coords_.size(); ++i) {
    const std::int32_t j = b.find(a.coords_[i]);
    if (j < 0) return false;
    const auto fa = a.features(i);
    const auto fb = b.features(static_cast<std::size_t>(j));
    for (std::size_t c = 0; c < fa.size(); ++c) {
      if (fa[c] != fb[c]) return false;
    }
  }
  return true;
}

}  // namespace esca::quant
