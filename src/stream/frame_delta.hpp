// Frame-to-frame diff of two voxelized point-cloud frames.
//
// Consecutive frames of a LiDAR / depth stream overlap heavily (10-30 Hz
// sensors re-observe most of the scene every frame), so the interesting
// signal is the *difference* between frames, not the frames themselves. A
// FrameDelta classifies every site of two tensors as added, removed or
// retained by merging their Morton-sorted CoordIndex entry runs — one O(n+m)
// linear pass, no hashing, no per-site searches. The incremental geometry
// engine (incremental_geometry.hpp) consumes the delta to patch the previous
// frame's LayerGeometry instead of rebuilding it.
//
// The merge is shardable: both runs are split at common Morton cut points,
// every esca::Executor partition merges one code range, and the per-range
// added/removed lists concatenate in shard order (= global Morton order)
// while the row maps are written in place (each row belongs to exactly one
// range). The result is bit-identical to the serial merge for any shard
// count; the shard count is the geometry engine's (sparse::GeometryOptions).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::stream {

/// Row-level diff between a previous and a next frame over one voxel grid.
/// Both frames are arbitrary SparseTensors over the same spatial extent;
/// rows refer to each tensor's own row numbering.
struct FrameDelta {
  /// For every previous-frame row: the row the same coordinate occupies in
  /// the next frame, or -1 when the site disappeared.
  std::vector<std::int32_t> old_to_new;
  /// For every next-frame row: the row the same coordinate occupied in the
  /// previous frame, or -1 when the site is new.
  std::vector<std::int32_t> new_to_old;
  /// Next-frame rows of the added sites, Morton order.
  std::vector<std::int32_t> added;
  /// Previous-frame rows of the removed sites, Morton order.
  std::vector<std::int32_t> removed;
  /// Sites present in both frames.
  std::size_t retained{0};

  /// Sites that changed between the frames.
  std::size_t churn() const { return added.size() + removed.size(); }

  /// Churn normalized by the larger frame: 0 = identical coordinate sets,
  /// values near (or above) 1 = the frames share (almost) nothing.
  double churn_fraction() const {
    const std::size_t larger =
        std::max(old_to_new.size(), new_to_old.size());
    return larger == 0 ? 0.0 : static_cast<double>(churn()) / static_cast<double>(larger);
  }

  /// Voxel-level overlap: retained / larger frame (1 - churn-ish; the
  /// quantity the stream benchmarks sweep).
  double overlap_fraction() const {
    const std::size_t larger =
        std::max(old_to_new.size(), new_to_old.size());
    return larger == 0 ? 1.0 : static_cast<double>(retained) / static_cast<double>(larger);
  }
};

/// Diff two frames over the same spatial extent (throws InvalidArgument on
/// extent mismatch). One merge over both Morton-sorted index runs, sharded
/// by Morton range when `options` (default: the geometry engine's auto
/// policy, bounded by the work available) picks more than one shard.
FrameDelta diff_frames(const sparse::SparseTensor& prev, const sparse::SparseTensor& next,
                       const sparse::GeometryOptions& options = {});

}  // namespace esca::stream
