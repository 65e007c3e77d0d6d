#include "sparse/coord_index.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "voxel/morton.hpp"

namespace esca::sparse {

namespace {

/// True when every axis of c fits the 21-bit Morton range; codes of other
/// coordinates alias (morton_encode keeps only the low 21 bits per axis).
bool in_morton_range(const Coord3& c) {
  return c.x >= 0 && c.y >= 0 && c.z >= 0 && c.x < voxel::kMortonMaxCoord &&
         c.y < voxel::kMortonMaxCoord && c.z < voxel::kMortonMaxCoord;
}

std::uint64_t checked_code(const Coord3& c) {
  ESCA_REQUIRE(in_morton_range(c),
               "coordinate " << c << " is outside the Morton range [0, 2^21)");
  return voxel::morton_encode(c);
}

/// lower_bound by code over the sorted entry run.
std::vector<CoordIndex::Entry>::const_iterator lower_bound_code(
    const std::vector<CoordIndex::Entry>& run, std::uint64_t code) {
  return std::lower_bound(run.begin(), run.end(), code,
                          [](const CoordIndex::Entry& e, std::uint64_t c) { return e.code < c; });
}

}  // namespace

bool CoordIndex::insert(const Coord3& c, std::int32_t row) {
  const std::uint64_t code = checked_code(c);
  const auto it = lower_bound_code(entries_, code);
  if (it != entries_.end() && it->code == code) return false;
  entries_.insert(it, Entry{code, row});
  return true;
}

std::int32_t CoordIndex::find(const Coord3& c) const {
  if (!in_morton_range(c)) return -1;
  const std::uint64_t code = voxel::morton_encode(c);
  const auto it = lower_bound_code(entries_, code);
  return (it != entries_.end() && it->code == code) ? it->row : -1;
}

bool CoordIndex::rebuild(std::span<const Coord3> coords) {
  std::vector<Entry> entries;
  entries.reserve(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    entries.push_back(Entry{checked_code(coords[i]), static_cast<std::int32_t>(i)});
  }
  std::sort(entries.begin(), entries.end());
  const auto dup = std::adjacent_find(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.code == b.code; });
  if (dup != entries.end()) {
    entries_.clear();
    return false;
  }
  entries_ = std::move(entries);
  return true;
}

std::int32_t CoordIndex::find_near(std::uint64_t code, std::size_t& cursor) const {
  const std::size_t n = entries_.size();
  if (n == 0) return -1;
  if (cursor >= n) cursor = n - 1;

  // Bracket [lo, hi) around the query by galloping away from the cursor.
  std::size_t lo = cursor;
  std::size_t hi = cursor;
  if (entries_[cursor].code < code) {
    std::size_t step = 1;
    hi = cursor + 1;
    while (hi < n && entries_[hi].code < code) {
      lo = hi;
      hi = std::min(n, hi + step);
      step *= 2;
    }
  } else {
    std::size_t step = 1;
    while (lo > 0 && entries_[lo - 1].code >= code) {
      hi = lo;
      lo = (lo > step) ? lo - step : 0;
      step *= 2;
    }
    hi = std::max(hi, lo + 1);
  }

  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = entries_.begin() + static_cast<std::ptrdiff_t>(std::min(hi, n));
  const auto it = std::lower_bound(
      first, last, code,
      [](const Entry& e, std::uint64_t c) { return e.code < c; });
  cursor = std::min(static_cast<std::size_t>(it - entries_.begin()), n - 1);
  return (it != entries_.end() && it->code == code) ? it->row : -1;
}

}  // namespace esca::sparse
