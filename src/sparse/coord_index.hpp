// Morton-ordered coordinate index — the software model of the paper's
// coordinate-mapping stage (and of PointAcc-style "mapping by sorting").
//
// A CoordIndex maps Coord3 -> row through one sorted array of
// (morton code, row) entries instead of a hash table. Lookups are binary
// searches; streaming lookups whose queries are spatially local (kernel
// offsets enumerated over a Morton-ordered site list) use a galloping
// cursor (`find_near`) that degenerates to O(1) when locality holds.
//
// The array is sorted at all times: bulk (re)builds sort once, and insert()
// places each entry at its sorted position (an append when sites arrive in
// Morton order). Copying the index is a flat vector copy — no rehash.
//
// Thread-safety: every const method is a pure read, so any number of
// threads may read one index concurrently while nobody inserts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace esca::sparse {

class CoordIndex {
 public:
  struct Entry {
    std::uint64_t code{0};  ///< Morton code of the coordinate
    std::int32_t row{-1};   ///< payload row

    friend bool operator<(const Entry& a, const Entry& b) { return a.code < b.code; }
  };

  CoordIndex() = default;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Insert c -> row at its sorted position. Returns false when c is
  /// already present (nothing is inserted). Throws InvalidArgument when an
  /// axis of c lies outside the Morton range [0, 2^21).
  bool insert(const Coord3& c, std::int32_t row);

  /// Row of c, or -1 (also for coordinates outside the Morton range).
  std::int32_t find(const Coord3& c) const;

  /// Rebuild from a coordinate list: row i = coords[i]. Returns false (and
  /// leaves the index empty) when the list contains a duplicate; throws
  /// InvalidArgument, leaving the index unchanged, when a coordinate lies
  /// outside the Morton range.
  bool rebuild(std::span<const Coord3> coords);

  /// The Morton-sorted entry list. The span is invalidated by the next
  /// insert()/rebuild().
  std::span<const Entry> entries() const { return entries_; }

  /// Galloping search around a caller-owned cursor: starts at `cursor`
  /// and widens exponentially, then binary-searches the bracketed window.
  /// `cursor` is updated to the match (or insertion point), which makes a
  /// run of spatially local queries nearly O(1) each.
  std::int32_t find_near(std::uint64_t code, std::size_t& cursor) const;

 private:
  std::vector<Entry> entries_;  ///< Morton-sorted, codes unique
};

}  // namespace esca::sparse
