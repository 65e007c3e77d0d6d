// Quantized sparse tensor: INT16 activations at active sites + a scale.
// Coordinate lookup uses the same Morton-ordered CoordIndex as the float
// SparseTensor (no hash table).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "quant/quantizer.hpp"
#include "sparse/coord_index.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::quant {

class QSparseTensor {
 public:
  QSparseTensor(Coord3 spatial_extent, int channels, QuantParams params);

  /// Quantize a float tensor with the given (or calibrated) params. Rows
  /// and the coordinate index are copied from `t`.
  static QSparseTensor from_float(const sparse::SparseTensor& t, QuantParams params);
  static QSparseTensor from_float_calibrated(const sparse::SparseTensor& t);

  /// Zero tensor over an externally owned coordinate set and its prebuilt
  /// index (flat copies/moves — no re-sorting, no per-site insertion).
  /// `index` must map exactly coords[i] -> i; rows keep the given order.
  static QSparseTensor from_coords(Coord3 spatial_extent, int channels, QuantParams params,
                                   std::vector<Coord3> coords, sparse::CoordIndex index);

  const Coord3& spatial_extent() const { return extent_; }
  int channels() const { return channels_; }
  std::size_t size() const { return coords_.size(); }
  const QuantParams& params() const { return params_; }

  std::int32_t add_site(const Coord3& c);
  std::int32_t find(const Coord3& c) const;
  const Coord3& coord(std::size_t row) const { return coords_[row]; }
  const std::vector<Coord3>& coords() const { return coords_; }

  std::span<std::int16_t> features(std::size_t row);
  std::span<const std::int16_t> features(std::size_t row) const;

  /// Row-major feature storage (site-major, `channels()` per row) — the
  /// compute engine's input view.
  std::span<const std::int16_t> raw_features() const { return features_; }

  /// Coordinate-only (1-channel) float tensor over the same sites: flat
  /// copies of the coords and the Morton index — no re-sorting, no per-site
  /// insertion. Geometry is shared between the float and integer worlds.
  sparse::SparseTensor sites() const;

  /// Dequantize back to float (for accuracy comparisons); rows and the
  /// coordinate index are copied.
  sparse::SparseTensor to_float() const;

  /// True iff extent, scale, coords, channels and every int16 value match.
  friend bool operator==(const QSparseTensor& a, const QSparseTensor& b);

 private:
  Coord3 extent_;
  int channels_;
  QuantParams params_;
  std::vector<Coord3> coords_;
  std::vector<std::int16_t> features_;
  sparse::CoordIndex index_;
};

}  // namespace esca::quant
