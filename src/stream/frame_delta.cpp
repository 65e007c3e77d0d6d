#include "stream/frame_delta.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "common/executor.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"

namespace esca::stream {

namespace {

using Entry = sparse::CoordIndex::Entry;

/// Merge one aligned code range of both entry runs: writes the row maps in
/// place (rows in a range are touched by no other range) and appends the
/// range's added/removed rows in Morton order.
void merge_range(std::span<const Entry> old_entries, std::size_t i, std::size_t i_end,
                 std::span<const Entry> new_entries, std::size_t j, std::size_t j_end,
                 FrameDelta& delta, std::vector<std::int32_t>& added,
                 std::vector<std::int32_t>& removed, std::size_t& retained) {
  while (i < i_end && j < j_end) {
    const Entry& oe = old_entries[i];
    const Entry& ne = new_entries[j];
    if (oe.code == ne.code) {
      delta.old_to_new[static_cast<std::size_t>(oe.row)] = ne.row;
      delta.new_to_old[static_cast<std::size_t>(ne.row)] = oe.row;
      ++retained;
      ++i;
      ++j;
    } else if (oe.code < ne.code) {
      removed.push_back(oe.row);
      ++i;
    } else {
      added.push_back(ne.row);
      ++j;
    }
  }
  for (; i < i_end; ++i) removed.push_back(old_entries[i].row);
  for (; j < j_end; ++j) added.push_back(new_entries[j].row);
}

/// First position in `run` whose code is >= `code`.
std::size_t lower_bound_pos(std::span<const Entry> run, std::uint64_t code) {
  const auto it = std::lower_bound(
      run.begin(), run.end(), code,
      [](const Entry& e, std::uint64_t c) { return e.code < c; });
  return static_cast<std::size_t>(it - run.begin());
}

}  // namespace

FrameDelta diff_frames(const sparse::SparseTensor& prev, const sparse::SparseTensor& next,
                       const sparse::GeometryOptions& options) {
  ESCA_REQUIRE(prev.spatial_extent() == next.spatial_extent(),
               "cannot diff frames over different extents: " << prev.spatial_extent() << " vs "
                                                             << next.spatial_extent());
  obs::Span span("stream.diff_frames");
  span.arg("prev_sites", prev.size());
  span.arg("next_sites", next.size());
  // Chaos site: the diff runs before any state mutates, so a failure here
  // must leave the stream able to retry or cold-rebuild cleanly.
  fault::maybe_throw("stream.diff");

  FrameDelta delta;
  delta.old_to_new.assign(prev.size(), -1);
  delta.new_to_old.assign(next.size(), -1);

  // Both entry runs are Morton-sorted with unique codes, so one merge walk
  // classifies every site of either frame.
  const auto old_entries = prev.index().entries();
  const auto new_entries = next.index().entries();

  const int shards =
      sparse::pick_geometry_shards(options, old_entries.size() + new_entries.size());
  if (shards <= 1) {
    std::size_t retained = 0;
    merge_range(old_entries, 0, old_entries.size(), new_entries, 0, new_entries.size(), delta,
                delta.added, delta.removed, retained);
    delta.retained = retained;
    return delta;
  }

  // Common Morton cut points, taken from the larger run so the work splits
  // evenly: a code lands in the same shard of both runs, so every site is
  // classified by exactly one partition.
  const auto su = static_cast<std::size_t>(shards);
  const auto base = old_entries.size() >= new_entries.size() ? old_entries : new_entries;
  std::vector<std::size_t> old_pos(su + 1, old_entries.size());
  std::vector<std::size_t> new_pos(su + 1, new_entries.size());
  old_pos[0] = 0;
  new_pos[0] = 0;
  for (std::size_t s = 1; s < su; ++s) {
    const std::uint64_t cut = base[base.size() * s / su].code;
    old_pos[s] = lower_bound_pos(old_entries, cut);
    new_pos[s] = lower_bound_pos(new_entries, cut);
  }

  struct RangeOut {
    std::vector<std::int32_t> added;
    std::vector<std::int32_t> removed;
    std::size_t retained{0};
  };
  std::vector<RangeOut> ranges(su);
  Executor::global().parallel_for(shards, [&](int s) {
    const auto u = static_cast<std::size_t>(s);
    RangeOut& out = ranges[u];
    merge_range(old_entries, old_pos[u], old_pos[u + 1], new_entries, new_pos[u],
                new_pos[u + 1], delta, out.added, out.removed, out.retained);
  });

  // Concatenate in shard order — ranges ascend in code space, each range's
  // lists are Morton-ordered, so the result equals the serial merge. Sizes
  // are prefix-summed so the lists are allocated exactly once.
  std::size_t total_added = 0;
  std::size_t total_removed = 0;
  for (const RangeOut& out : ranges) {
    total_added += out.added.size();
    total_removed += out.removed.size();
    delta.retained += out.retained;
  }
  delta.added.reserve(total_added);
  delta.removed.reserve(total_removed);
  for (const RangeOut& out : ranges) {
    delta.added.insert(delta.added.end(), out.added.begin(), out.added.end());
    delta.removed.insert(delta.removed.end(), out.removed.begin(), out.removed.end());
  }
  return delta;
}

}  // namespace esca::stream
