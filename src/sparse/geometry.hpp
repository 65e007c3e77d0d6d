// Unified sparse geometry engine.
//
// Submanifold and strided (downsample) geometries derive their work lists
// from one coordinate-mapping primitive: enumerate kernel offsets over a
// Morton-ordered site list and resolve each shifted query against a sorted
// CoordIndex (galloping binary search — no hash probes); an inverse
// geometry is its downsample's rulebook transposed. This mirrors the
// paper's SDMU, which derives every MAC from the coordinate mapping stage,
// and PointAcc's sorted-stream mapping unit.
//
// The result is a LayerGeometry: the rulebook plus the layer's coordinate
// sets. A LayerGeometry depends only on geometry (coordinate set, kernel,
// stride) — never on feature values — so it can be built once per layer at
// plan-compile time and replayed for every frame; nn/, quant/, baseline/
// and the runtime backends all consume the same handle.
//
// Construction is sharded: sites are partitioned into contiguous Morton
// ranges, each shard emits per-offset rule lists as one partition of an
// esca::Executor fan-out, and the shards are concatenated in order. The
// merged rule sequence is identical for any shard count (including 1) and
// any executor size, so results are deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "sparse/coord_index.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse {

/// Which conv variant a LayerGeometry describes.
enum class GeometryKind : std::uint8_t {
  kSubmanifold,  ///< outputs == inputs (Sub-Conv)
  kDownsample,   ///< strided conv: outputs are the covered cells
  kInverse,      ///< transposed conv restoring a recorded coordinate set
};

const char* to_string(GeometryKind kind);

/// Options for one geometry build.
struct GeometryOptions {
  /// Shard (partition) count for rulebook construction. 0 = the
  /// executor's size, bounded by the work available. Shards beyond the site
  /// count are clamped.
  int shards{0};
};

/// Compiled geometry of one sparse layer: the rulebook plus the coordinate
/// sets it indexes into. Immutable after construction; share via
/// LayerGeometryPtr (plan caching, per-scale reuse inside a network).
struct LayerGeometry {
  /// A kSubmanifold geometry's outputs are its sites, recorded here; the
  /// strided builder and the transpose record theirs once they are known.
  LayerGeometry(GeometryKind kind_, int kernel_size_, int stride_, SparseTensor sites_)
      : kind(kind_),
        kernel_size(kernel_size_),
        stride(stride_),
        out_extent(sites_.spatial_extent()),
        sites(std::move(sites_)),
        rulebook(kernel_size_ * kernel_size_ * kernel_size_) {
    if (kind == GeometryKind::kSubmanifold) {
      out_coords = sites.coords();
      out_index = sites.index();
    }
  }

  GeometryKind kind;
  int kernel_size;
  int stride;
  Coord3 out_extent;  ///< kDownsample: ceil(extent / stride); kInverse: the restored extent

  /// Coordinate-only (1-channel) tensor of the layer's input domain; row r
  /// here is row r of the layer input. Backends reuse it for zero removing,
  /// tile encoding and SDMU matching instead of rebuilding per frame.
  SparseTensor sites;

  /// The output site set, for every kind; rulebook out_rows index into
  /// out_coords, and out_index maps each of them back to its row.
  /// kSubmanifold: the input sites. kDownsample: the covered cells, Morton-
  /// ordered. kInverse: the restored coordinate set, in its recorded order.
  std::vector<Coord3> out_coords;
  CoordIndex out_index;

  RuleBook rulebook;

  /// The same rules bucketed by out-row block (compute-engine execution
  /// order), built once here so per-frame application never sorts. Content
  /// is equivalence-tested against `rulebook` per offset.
  BlockedRuleBook blocked;

  std::int64_t total_rules() const { return rulebook.total_rules(); }
  /// Effective MACs of executing this geometry at the given channel widths.
  std::int64_t macs(int in_channels, int out_channels) const;

  /// A zero tensor over the output sites: flat copies of out_coords and
  /// out_index — no re-sorting, no per-site insertion.
  SparseTensor zero_output(int channels) const {
    return SparseTensor::from_coords(out_extent, channels, out_coords, out_index);
  }
};

using LayerGeometryPtr = std::shared_ptr<const LayerGeometry>;

/// Submanifold geometry: outputs exist exactly at input sites; rule
/// (i -> j) exists when coord(i) == coord(j) + offset. Kernel must be odd.
LayerGeometry build_submanifold_geometry(const SparseTensor& input, int kernel_size,
                                         const GeometryOptions& options = {});

/// Strided ("regular") downsample geometry: an output cell exists when any
/// input site falls inside its receptive field. out_coords is Morton-ordered
/// (deterministic for any shard count).
LayerGeometry build_downsample_geometry(const SparseTensor& input, int kernel_size, int stride,
                                        const GeometryOptions& options = {});

/// Inverse (transposed) geometry of an already-built downsample geometry:
/// its rulebook transposed (swap in/out rows, keep the kernel cell). The
/// forward strided conv and its inverse enumerate exactly the same
/// (fine site, kernel cell, coarse cell) triples, so no coordinate search
/// is needed and no geometry build is counted. The inverse reads the
/// downsample's output sites and restores its input sites, in their row
/// order; rules come fine row by fine row, kernel cell innermost (the
/// sequence sparse::oracle::inverse emits).
LayerGeometry transpose_downsample_geometry(const LayerGeometry& down);

/// Convenience: build and wrap in a shared handle.
LayerGeometryPtr make_submanifold_geometry(const SparseTensor& input, int kernel_size,
                                           const GeometryOptions& options = {});
LayerGeometryPtr make_downsample_geometry(const SparseTensor& input, int kernel_size,
                                          int stride, const GeometryOptions& options = {});

/// Shared-handle variant of transpose_downsample_geometry.
LayerGeometryPtr make_transposed_inverse_geometry(const LayerGeometry& down);

/// The check every layer's forward makes before it reads its input through
/// `geometry`'s rules: throws InvalidArgument unless the geometry is of
/// `kind` with this kernel and stride and was built on an input of
/// `input_rows` rows (a geometry built on another tensor would index past
/// the input). O(1); `layer` names the caller in the message.
void require_geometry(const LayerGeometry& geometry, GeometryKind kind, int kernel_size,
                      int stride, std::size_t input_rows, const char* layer);

/// Bit-level equality of two compiled geometries: kind/kernel/stride, the
/// site tensor's coordinate rows (order included), the output extent and
/// out_coords, every per-offset rule sequence, and the blocked
/// re-bucketing. This is the contract the incremental stream engine
/// (stream/) is property-tested against: a patched geometry must be
/// indistinguishable from a cold build.
bool geometry_equal(const LayerGeometry& a, const LayerGeometry& b);

/// Process-wide registry counts of cold geometry builds of any kind
/// (`esca_geometry_builds_total`; monotonic, so tests prove that steady-
/// state frames replay cached geometry instead of rebuilding it) and of
/// transpose-derived inverse geometries (`esca_geometry_transposes_total`),
/// which are not builds. Scope test baselines with
/// obs::CounterGuard(geometry_builds_counter()).
obs::Counter& geometry_builds_counter();
obs::Counter& geometry_transposes_counter();

// --- sharding utilities -------------------------------------------------------
//
// The fan-out idiom every geometry producer uses (cold builds here, the
// incremental patch path in stream/): partition work into contiguous
// shards, run each shard as one Executor partition, concatenate per-shard
// results in shard order so the merged output is bit-identical for any
// shard count. Exposed so stream::diff_frames / patch_submanifold_geometry
// share one shard-picking policy with the cold builders.

/// Contiguous [begin, end) slice of shard `s` out of `shards` over n items.
struct GeometryShardRange {
  std::size_t begin{0};
  std::size_t end{0};
};
GeometryShardRange geometry_shard_range(std::size_t n, int shards, int s);

/// Shard count a build/patch over `n` sites actually uses. An explicit
/// request (options.shards > 0) is honored exactly (clamped to n; tests pin
/// shard determinism on tiny tensors); the default is additionally bounded
/// by the work available so small frames stay on one partition.
int pick_geometry_shards(const GeometryOptions& options, std::size_t n);

}  // namespace esca::sparse
