#include "stream/incremental_geometry.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "common/executor.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "voxel/morton.hpp"

namespace esca::stream {

namespace {

/// A fresh rule keyed by the Morton code of its output site — the merge key
/// that reproduces the cold builder's per-offset emission order.
struct KeyedRule {
  std::uint64_t out_code;
  sparse::Rule rule;
};

using Entry = sparse::CoordIndex::Entry;

/// First position in a sorted entry run whose code is >= `code`.
std::size_t entry_lower_bound(std::span<const Entry> run, std::uint64_t code) {
  const auto it =
      std::lower_bound(run.begin(), run.end(), code,
                       [](const Entry& e, std::uint64_t c) { return e.code < c; });
  return static_cast<std::size_t>(it - run.begin());
}

/// Enumerate the fresh rules of the added rows [a_begin, a_end): kernel
/// offsets around each added site, resolved against the next frame's index
/// with galloping cursors owned by this call. An added site contributes as
/// the output row (input = site + offset, any input) and as the input row
/// (output = site - offset) — the latter skips added outputs, which the
/// former already covers, so no rule is emitted twice. Appends into
/// `fresh[offset]`; emission order within one call is ascending in the added
/// site's Morton code, but callers sort per offset anyway (out codes are
/// unique per offset, so the sort is deterministic).
void enumerate_fresh(const sparse::SparseTensor& next, const FrameDelta& delta,
                     std::span<const Entry> entries, const std::vector<std::uint64_t>& code_of,
                     const std::vector<Coord3>& offsets, std::size_t a_begin, std::size_t a_end,
                     std::vector<std::vector<KeyedRule>>& fresh) {
  if (a_begin >= a_end) return;
  const sparse::CoordIndex& index = next.index();
  const Coord3 extent = next.spatial_extent();
  const int volume = static_cast<int>(offsets.size());
  // Seed every cursor at the range's first added site; find_near brackets
  // the query by galloping in either direction, so the seed is a pure
  // locality hint — results do not depend on it.
  const std::size_t seed =
      entry_lower_bound(entries, code_of[static_cast<std::size_t>(delta.added[a_begin])]);
  std::vector<std::size_t> out_cursors(static_cast<std::size_t>(volume), seed);
  std::vector<std::size_t> in_cursors(static_cast<std::size_t>(volume), seed);
  for (std::size_t ai = a_begin; ai < a_end; ++ai) {
    const std::int32_t a = delta.added[ai];
    const Coord3 c = next.coord(static_cast<std::size_t>(a));
    for (int o = 0; o < volume; ++o) {
      const auto ou = static_cast<std::size_t>(o);
      const Coord3 in_c = c + offsets[ou];
      if (in_bounds(in_c, extent)) {
        const std::int32_t i = index.find_near(voxel::morton_encode(in_c), out_cursors[ou]);
        if (i >= 0) {
          fresh[ou].push_back({code_of[static_cast<std::size_t>(a)], sparse::Rule{i, a}});
        }
      }
      const Coord3 out_c = c - offsets[ou];
      if (in_bounds(out_c, extent)) {
        const std::int32_t j = index.find_near(voxel::morton_encode(out_c), in_cursors[ou]);
        if (j >= 0 && delta.new_to_old[static_cast<std::size_t>(j)] >= 0) {
          fresh[ou].push_back({code_of[static_cast<std::size_t>(j)], sparse::Rule{a, j}});
        }
      }
    }
  }
}

/// Merge the survivors of `old_rules` (renumbered through the delta's row
/// maps, drops skipped) with the sorted fresh rules [f, f_end) into `out`,
/// ascending in the output site's Morton code. A (offset, output site) pair
/// identifies at most one submanifold rule, so the keys never tie and the
/// merged sequence equals the cold builder's emission order.
void merge_offset_range(std::span<const sparse::Rule> old_rules, const FrameDelta& delta,
                        const std::vector<std::uint64_t>& code_of,
                        std::span<const KeyedRule> fo, std::vector<sparse::Rule>& out) {
  out.reserve(old_rules.size() + fo.size());
  std::size_t f = 0;
  for (const sparse::Rule& r : old_rules) {
    const std::int32_t ni = delta.old_to_new[static_cast<std::size_t>(r.in_row)];
    const std::int32_t nj = delta.old_to_new[static_cast<std::size_t>(r.out_row)];
    if (ni < 0 || nj < 0) continue;
    const std::uint64_t cj = code_of[static_cast<std::size_t>(nj)];
    while (f < fo.size() && fo[f].out_code < cj) out.push_back(fo[f++].rule);
    out.push_back(sparse::Rule{ni, nj});
  }
  for (; f < fo.size(); ++f) out.push_back(fo[f].rule);
}

}  // namespace

sparse::LayerGeometry patch_submanifold_geometry(const sparse::LayerGeometry& prev,
                                                 const sparse::SparseTensor& next,
                                                 const FrameDelta& delta,
                                                 const sparse::GeometryOptions& options) {
  ESCA_REQUIRE(prev.kind == sparse::GeometryKind::kSubmanifold,
               "can only patch submanifold geometry, got " << to_string(prev.kind));
  ESCA_REQUIRE(prev.sites.spatial_extent() == next.spatial_extent(),
               "frame extent changed: " << prev.sites.spatial_extent() << " -> "
                                        << next.spatial_extent());
  ESCA_REQUIRE(delta.old_to_new.size() == prev.sites.size() &&
                   delta.new_to_old.size() == next.size(),
               "delta shape (" << delta.old_to_new.size() << " -> " << delta.new_to_old.size()
                               << ") does not match the frames (" << prev.sites.size() << " -> "
                               << next.size() << ")");
  const int k = prev.kernel_size;
  const int volume = k * k * k;

  obs::Span span("stream.patch_geometry");
  span.arg("sites", next.size());
  span.arg("added", delta.added.size());
  span.arg("removed", delta.removed.size());

  // Chaos site: a patch that dies mid-stream leaves the caller's carried
  // per-scale state halfway between two frames — exactly what serve's
  // stream quarantine must absorb.
  fault::maybe_throw("stream.patch");

  sparse::LayerGeometry g(sparse::GeometryKind::kSubmanifold, k, 1, next.zeros_like(1));

  const auto entries = g.sites.index().entries();

  std::vector<Coord3> offsets(static_cast<std::size_t>(volume));
  for (int o = 0; o < volume; ++o) {
    offsets[static_cast<std::size_t>(o)] = sparse::kernel_offset(o, k);
  }

  const int shards = sparse::pick_geometry_shards(options, next.size());
  span.arg("shards", shards);
  if (shards <= 1) {
    // Serial patch: one pass, rules written straight into the rulebook.
    std::vector<std::uint64_t> code_of(next.size());
    for (const auto& e : entries) code_of[static_cast<std::size_t>(e.row)] = e.code;

    std::vector<std::vector<KeyedRule>> fresh(static_cast<std::size_t>(volume));
    enumerate_fresh(next, delta, entries, code_of, offsets, 0, delta.added.size(), fresh);

    for (int o = 0; o < volume; ++o) {
      const auto ou = static_cast<std::size_t>(o);
      auto& fo = fresh[ou];
      std::sort(fo.begin(), fo.end(),
                [](const KeyedRule& a, const KeyedRule& b) { return a.out_code < b.out_code; });
      const std::vector<sparse::Rule>& old_rules = prev.rulebook.rules_for(o);
      g.rulebook.reserve(o, old_rules.size() + fo.size());
      std::size_t f = 0;
      for (const sparse::Rule& r : old_rules) {
        const std::int32_t ni = delta.old_to_new[static_cast<std::size_t>(r.in_row)];
        const std::int32_t nj = delta.old_to_new[static_cast<std::size_t>(r.out_row)];
        if (ni < 0 || nj < 0) continue;
        const std::uint64_t cj = code_of[static_cast<std::size_t>(nj)];
        while (f < fo.size() && fo[f].out_code < cj) g.rulebook.add(o, fo[f++].rule);
        g.rulebook.add(o, sparse::Rule{ni, nj});
      }
      for (; f < fo.size(); ++f) g.rulebook.add(o, fo[f].rule);
    }
    g.blocked = sparse::BlockedRuleBook(g.rulebook, g.out_coords.size());
    return g;
  }

  // Sharded patch: five consecutive executor fan-outs of `shards`
  // partitions. The fresh enumeration splits over ranges of the added list;
  // the survivor scan and the per-offset merge split at common Morton cut
  // points of the next frame's output sites, so each partition produces a
  // contiguous slice of every offset's final rule sequence and
  // concatenation in shard order reproduces the serial merge bit for bit.
  const auto su = static_cast<std::size_t>(shards);
  const auto vu = static_cast<std::size_t>(volume);
  Executor& executor = Executor::global();

  // Cut codes over the output sites: shard s owns [cuts[s], cuts[s+1]).
  // Retained sites keep their coordinates, so a survivor's previous-frame
  // out code equals its merge key and the (sorted) old rule lists slice by
  // the same cuts.
  std::vector<std::uint64_t> cuts(su + 1);
  cuts[0] = 0;
  for (std::size_t s = 1; s < su; ++s) cuts[s] = entries[entries.size() * s / su].code;
  cuts[su] = std::numeric_limits<std::uint64_t>::max();

  std::vector<std::uint64_t> code_of(next.size());
  std::vector<std::vector<std::vector<KeyedRule>>> fresh_parts(
      su, std::vector<std::vector<KeyedRule>>(vu));
  std::vector<std::vector<KeyedRule>> fresh(vu);
  std::vector<std::vector<std::vector<sparse::Rule>>> merged(
      su, std::vector<std::vector<sparse::Rule>>(vu));

  // Phase 1: Morton code of every next-frame row — the merge key for
  // survivors and fresh rules alike (one array load per rule later).
  executor.parallel_for(shards, [&](int s) {
    const auto r = sparse::geometry_shard_range(entries.size(), shards, s);
    for (std::size_t e = r.begin; e < r.end; ++e) {
      code_of[static_cast<std::size_t>(entries[e].row)] = entries[e].code;
    }
  });
  // Phase 2: fresh rules of each shard's slice of the added list.
  executor.parallel_for(shards, [&](int s) {
    const auto r = sparse::geometry_shard_range(delta.added.size(), shards, s);
    enumerate_fresh(next, delta, entries, code_of, offsets, r.begin, r.end,
                    fresh_parts[static_cast<std::size_t>(s)]);
  });
  // Phase 3: per offset (round-robin across shards), concatenate the
  // per-shard fresh parts and sort by out code. Out codes are unique within
  // an offset, so the sorted sequence is independent of the enumeration
  // split.
  executor.parallel_for(shards, [&](int s) {
    for (int o = s; o < volume; o += shards) {
      const auto ou = static_cast<std::size_t>(o);
      std::size_t total = 0;
      for (std::size_t s2 = 0; s2 < su; ++s2) total += fresh_parts[s2][ou].size();
      auto& fo = fresh[ou];
      fo.reserve(total);
      for (std::size_t s2 = 0; s2 < su; ++s2) {
        fo.insert(fo.end(), fresh_parts[s2][ou].begin(), fresh_parts[s2][ou].end());
      }
      std::sort(fo.begin(), fo.end(),
                [](const KeyedRule& a, const KeyedRule& b) { return a.out_code < b.out_code; });
    }
  });
  // Phase 4: merge each shard's code range of every offset — survivors
  // sliced by previous-frame out code (the lists are sorted by it), fresh
  // rules sliced by out code.
  executor.parallel_for(shards, [&](int s) {
    const auto u = static_cast<std::size_t>(s);
    const auto prev_out_code = [&](const sparse::Rule& r) {
      return voxel::morton_encode(prev.sites.coord(static_cast<std::size_t>(r.out_row)));
    };
    for (int o = 0; o < volume; ++o) {
      const auto ou = static_cast<std::size_t>(o);
      const std::vector<sparse::Rule>& old_rules = prev.rulebook.rules_for(o);
      const auto ob = std::partition_point(
          old_rules.begin(), old_rules.end(),
          [&](const sparse::Rule& r) { return prev_out_code(r) < cuts[u]; });
      const auto oe = std::partition_point(ob, old_rules.end(), [&](const sparse::Rule& r) {
        return prev_out_code(r) < cuts[u + 1];
      });
      const auto& fo = fresh[ou];
      const auto key_less = [](const KeyedRule& kr, std::uint64_t c) { return kr.out_code < c; };
      const auto fb = std::lower_bound(fo.begin(), fo.end(), cuts[u], key_less);
      const auto fe = std::lower_bound(fb, fo.end(), cuts[u + 1], key_less);
      merge_offset_range(
          {old_rules.data() + (ob - old_rules.begin()), static_cast<std::size_t>(oe - ob)},
          delta, code_of, {fo.data() + (fb - fo.begin()), static_cast<std::size_t>(fe - fb)},
          merged[u][ou]);
    }
  });
  // Phase 5: per offset (round-robin), splice the per-shard slices into the
  // rulebook in shard order == Morton order. Partitions touch disjoint
  // offsets, and RuleBook keeps independent per-offset vectors.
  executor.parallel_for(shards, [&](int s) {
    for (int o = s; o < volume; o += shards) {
      const auto ou = static_cast<std::size_t>(o);
      std::size_t total = 0;
      for (std::size_t s2 = 0; s2 < su; ++s2) total += merged[s2][ou].size();
      g.rulebook.reserve(o, total);
      for (std::size_t s2 = 0; s2 < su; ++s2) {
        for (const sparse::Rule& r : merged[s2][ou]) g.rulebook.add(o, r);
      }
    }
  });

  g.blocked = sparse::BlockedRuleBook(g.rulebook, g.out_coords.size());
  return g;
}

IncrementalGeometry::IncrementalGeometry(IncrementalGeometryConfig config)
    : config_(config) {
  ESCA_REQUIRE(config_.kernel_size >= 1 && config_.kernel_size % 2 == 1,
               "incremental geometry requires an odd kernel, got " << config_.kernel_size);
  ESCA_REQUIRE(config_.rebuild_fraction >= 0.0,
               "rebuild fraction must be >= 0, got " << config_.rebuild_fraction);
}

obs::Counter& stream_geometry_patches_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_stream_geometry_patches_total", "frames advanced by the incremental patch path");
  return counter;
}

obs::Counter& stream_geometry_rebuilds_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_stream_geometry_rebuilds_total",
      "cold stream rebuilds (first frame, extent change or churn fallback)");
  return counter;
}

GeometryUpdate IncrementalGeometry::update(const sparse::SparseTensor& frame) {
  if (current_ != nullptr && current_->sites.spatial_extent() == frame.spatial_extent()) {
    return update(frame, diff_frames(current_->sites, frame, config_.geometry));
  }
  GeometryUpdate out;
  out.sites = frame.size();
  out.added = frame.size();
  const auto t0 = std::chrono::steady_clock::now();
  current_ = sparse::make_submanifold_geometry(frame, config_.kernel_size, config_.geometry);
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.shards = sparse::pick_geometry_shards(config_.geometry, frame.size());
  ++rebuilds_;
  stream_geometry_rebuilds_counter().inc();
  out.geometry = current_;
  return out;
}

GeometryUpdate IncrementalGeometry::update(const sparse::SparseTensor& frame,
                                           const FrameDelta& delta) {
  ESCA_REQUIRE(current_ != nullptr, "update with a delta requires carried state");
  GeometryUpdate out;
  out.sites = frame.size();
  out.added = delta.added.size();
  out.removed = delta.removed.size();
  out.retained = delta.retained;
  out.shards = sparse::pick_geometry_shards(config_.geometry, frame.size());
  const auto t0 = std::chrono::steady_clock::now();
  // Chaos site: force the churn fallback — the patched and cold-built
  // geometries are bit-identical, so flipping paths at random must never
  // change results (the chaos suite's cheapest invariant).
  const bool force_rebuild = fault::maybe_fire("stream.force_rebuild");
  if (!force_rebuild && delta.churn_fraction() <= config_.rebuild_fraction) {
    current_ = std::make_shared<const sparse::LayerGeometry>(
        patch_submanifold_geometry(*current_, frame, delta, config_.geometry));
    ++patches_;
    stream_geometry_patches_counter().inc();
    out.patched = true;
  } else {
    current_ = sparse::make_submanifold_geometry(frame, config_.kernel_size, config_.geometry);
    ++rebuilds_;
    stream_geometry_rebuilds_counter().inc();
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.geometry = current_;
  return out;
}

}  // namespace esca::stream
