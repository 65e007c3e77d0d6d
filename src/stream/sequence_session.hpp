// SequenceSession: an ordered point-cloud stream over a runtime::Session.
//
// A session owns per-scale incremental geometry state for one sensor
// stream: scale 0 is the voxelized input frame, every further scale is the
// stride-2 downsampling of the previous one (the SS U-Net pyramid). Each
// advance() diffs the new frame against the previous one (stream/
// frame_delta.hpp), patches every scale's submanifold geometry through
// stream::IncrementalGeometry, and pushes one frame through the underlying
// runtime::Session so weight residency and reporting behave exactly like
// any other streaming workload.
//
// Each coarse scale is derived from the finer one in a single pass over
// its Morton-sorted index: with kernel == stride == 2, a coarse cell's
// Morton code is the fine code >> 3, so the coarse codes arrive sorted and
// dedupe in order — the out_coords of build_downsample_geometry(fine, 2, 2)
// without a geometry build. Only the per-scale submanifold geometry carries
// state from frame to frame.
//
// serve::Server exposes SequenceSessions as a sticky request kind: all
// requests of one stream id are pinned to one worker, whose SequenceSession
// carries the stream's state across requests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/session.hpp"
#include "stream/incremental_geometry.hpp"

namespace esca::stream {

struct SequenceSessionConfig {
  /// Submanifold kernel at every scale (odd).
  int kernel_size{3};
  /// Geometry pyramid depth (>= 1). Scale s is the input downsampled s
  /// times with kernel == stride == 2, as in the SS U-Net.
  int scales{1};
  /// Shard configuration for the whole per-frame geometry path: cold
  /// (re)builds, the frame diff and the incremental patch (see
  /// IncrementalGeometryConfig::geometry). Intra-frame parallelism — results
  /// are bit-identical for any value.
  sparse::GeometryOptions geometry{};
  /// Churn fallback threshold; see IncrementalGeometryConfig.
  double rebuild_fraction{kDefaultRebuildFraction};
};

/// What one frame changed at one scale.
struct ScaleUpdate {
  std::size_t sites{0};
  std::size_t added{0};
  std::size_t removed{0};
  bool patched{false};  ///< false = cold build (first frame or churn fallback)
  double seconds{0.0};  ///< wall clock of this scale's patch / cold build
  int shards{1};        ///< shard count the patch / build was partitioned into
};

/// Geometry-side stats of one advance() call.
struct SequenceFrameStats {
  std::vector<ScaleUpdate> scales;  ///< one entry per pyramid scale
  double geometry_seconds{0.0};     ///< wall clock of the geometry update

  std::size_t patched_scales() const {
    std::size_t n = 0;
    for (const ScaleUpdate& s : scales) n += s.patched ? 1 : 0;
    return n;
  }
  /// Largest shard count any scale fanned out to this frame.
  int max_shards() const {
    int n = 1;
    for (const ScaleUpdate& s : scales) n = std::max(n, s.shards);
    return n;
  }
  /// Summed patch wall clock of the scales that patched (cold builds
  /// excluded) — the quantity the serve telemetry histograms.
  double patch_seconds() const {
    double t = 0.0;
    for (const ScaleUpdate& s : scales) t += s.patched ? s.seconds : 0.0;
    return t;
  }
};

/// Everything one advance() produced.
struct SequenceFrameResult {
  SequenceFrameStats stats;
  /// The frame's execution report (single frame; core/report-compatible).
  runtime::RunReport run;
  /// The per-scale submanifold geometries of this frame (shared handles).
  std::vector<sparse::LayerGeometryPtr> geometries;
};

class SequenceSession {
 public:
  /// Borrows `session` (and through it the backend); the SequenceSession
  /// must not outlive it. Several SequenceSessions may share one Session —
  /// the serve worker model, where one worker multiplexes its streams.
  SequenceSession(runtime::Session& session, SequenceSessionConfig config = {});

  /// Advance the stream by one frame: update every scale's geometry
  /// incrementally, then submit one frame through the runtime Session.
  /// An empty `frame_id` is auto-numbered within this stream.
  SequenceFrameResult advance(const sparse::SparseTensor& frame, std::string frame_id = "",
                              const runtime::RunOptions& options = {});

  std::size_t frames_advanced() const { return frames_; }
  /// Patch / cold-build totals summed over all scales.
  std::uint64_t patches() const;
  std::uint64_t rebuilds() const;

  runtime::Session& session() { return *session_; }
  const SequenceSessionConfig& config() const { return config_; }

  /// Drop all carried geometry state (the next frame cold-builds).
  void reset();

  /// Degraded mode (the serve brown-out hook): while set, every advance()
  /// drops carried state first, so each frame cold-builds instead of
  /// diffing/patching. Outputs are bit-identical to the incremental path —
  /// only the per-frame cost rises — and no incremental state accumulates
  /// while the server is overloaded.
  void set_forced_rebuild(bool forced) { forced_rebuild_ = forced; }

 private:
  runtime::Session* session_;
  SequenceSessionConfig config_;
  std::vector<IncrementalGeometry> scales_;
  std::size_t frames_{0};
  bool forced_rebuild_{false};
};

}  // namespace esca::stream
