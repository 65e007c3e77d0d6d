// Incremental frame-to-frame geometry: patch the previous frame's
// LayerGeometry instead of rebuilding it.
//
// A cold submanifold build enumerates every (site, kernel offset) pair and
// resolves each shifted query against the Morton index — O(n * k^3)
// galloping searches per frame. Across a sensor stream most of that work is
// identical frame to frame: a rule (i -> j) survives exactly when both of
// its sites survive. patch_submanifold_geometry() therefore
//
//   1. drops the rules touching a removed site and renumbers the survivors
//      through the delta's row maps (two array loads per rule),
//   2. enumerates kernel offsets around the *added* sites only — the sole
//      place coordinate searches still happen, O(churn * k^3), and
//   3. merges survivors and fresh rules per offset in Morton order of the
//      output site, which is precisely the cold builder's emission order.
//
// The result is bit-identical to build_submanifold_geometry() on the new
// frame — rule sequences, site rows, output sites and the blocked re-bucketing
// (property-tested; see sparse::geometry_equal). IncrementalGeometry wraps
// the patch with state carrying and a churn threshold: when a frame changes
// more than `rebuild_fraction` of its sites, patching would touch most
// rules anyway, so it falls back to a cold (optionally sharded) build.
//
// The whole patch is sharded, like the cold builders (one shard count:
// sparse::GeometryOptions): the fresh-site kernel enumeration splits over
// Morton ranges of the *added* sites (each partition with its own
// galloping cursors), the survivor scan and the per-offset survivor+fresh
// merge split at common Morton cut points of the output sites, and the
// per-range results concatenate in Morton order — so the patched geometry
// stays bit-identical to the serial patch (and therefore to a cold build)
// at ANY shard count. The phases are consecutive esca::Executor fan-outs;
// one shard takes the serial patch, which skips the per-shard copies.
#pragma once

#include <cstdint>

#include "sparse/geometry.hpp"
#include "stream/frame_delta.hpp"

namespace esca::stream {

/// Default fallback threshold: rebuild from scratch once more than half the
/// (larger) frame churned.
inline constexpr double kDefaultRebuildFraction = 0.5;

struct IncrementalGeometryConfig {
  /// Submanifold kernel size (odd).
  int kernel_size{3};
  /// Shard configuration for the whole geometry path: cold (re)builds, the
  /// frame diff AND the incremental patch (0 = the geometry engine's auto
  /// policy, bounded by the work available; results are bit-identical for
  /// any value). Serve workers running sticky streams inherit it through
  /// SequenceSessionConfig::geometry for intra-frame parallelism.
  sparse::GeometryOptions geometry{};
  /// Churn fraction above which update() abandons patching for a cold
  /// rebuild. 0 patches only geometrically identical frames; 2 or more
  /// patches through any churn (churn_fraction() never exceeds 2).
  double rebuild_fraction{kDefaultRebuildFraction};
};

/// One update() outcome: the geometry handle plus what the frame changed.
struct GeometryUpdate {
  sparse::LayerGeometryPtr geometry;
  std::size_t sites{0};
  std::size_t added{0};
  std::size_t removed{0};
  std::size_t retained{0};
  bool patched{false};  ///< false = cold build (first frame or churn fallback)
  double seconds{0.0};  ///< wall clock of the patch / cold build (diff excluded)
  int shards{1};        ///< shard count the patch / build was partitioned into
};

/// Patch `prev` (a submanifold geometry) into the geometry of `next`.
/// `delta` must be diff_frames(prev.sites, next); extents must match.
/// Returns a geometry bit-identical to build_submanifold_geometry(next, k)
/// for any shard count `options` picks (1 = the serial patch).
sparse::LayerGeometry patch_submanifold_geometry(const sparse::LayerGeometry& prev,
                                                 const sparse::SparseTensor& next,
                                                 const FrameDelta& delta,
                                                 const sparse::GeometryOptions& options = {});

/// Process-wide registry counters aggregating every IncrementalGeometry in
/// the process: `esca_stream_geometry_patches_total` counts frames advanced
/// by the incremental patch path, `esca_stream_geometry_rebuilds_total`
/// counts cold rebuilds (first frame, extent change, or churn fallback).
/// Per-instance counts stay on IncrementalGeometry::patches()/rebuilds().
obs::Counter& stream_geometry_patches_counter();
obs::Counter& stream_geometry_rebuilds_counter();

/// Per-layer incremental state across an ordered frame sequence. Feed the
/// frames in order; each update() returns the frame's geometry, patched
/// from the previous frame whenever the churn threshold allows.
class IncrementalGeometry {
 public:
  explicit IncrementalGeometry(IncrementalGeometryConfig config = {});

  const IncrementalGeometryConfig& config() const { return config_; }

  /// Advance to `frame`, reusing the previous frame's geometry when
  /// possible. The returned handle is also retained as the new state.
  GeometryUpdate update(const sparse::SparseTensor& frame);

  /// The last frame's geometry (null before the first update()).
  const sparse::LayerGeometryPtr& current() const { return current_; }

  /// Drop the carried state; the next update() cold-builds.
  void reset() { current_ = nullptr; }

  std::uint64_t patches() const { return patches_; }
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// Patch (or churn-fallback rebuild) from current() through `delta`,
  /// which is diff_frames(current()->sites, frame).
  GeometryUpdate update(const sparse::SparseTensor& frame, const FrameDelta& delta);

  IncrementalGeometryConfig config_;
  sparse::LayerGeometryPtr current_;
  std::uint64_t patches_{0};
  std::uint64_t rebuilds_{0};
};

}  // namespace esca::stream
