// Gather-GEMM-scatter compute engine: tiled, multithreaded rulebook
// application with a reusable scratch arena.
//
// This is the software restructuring the paper's accelerator performs in
// hardware: per kernel offset, gather the rule-matched input feature rows
// into a contiguous tile, stream the tile through a dense branch-free
// multiply-accumulate microkernel, and scatter-accumulate into the output
// rows. HLS4PC builds its parametrizable point-cloud pipeline around the
// same gather/compute/scatter split.
//
// Execution walks the BlockedRuleBook out-row block by out-row block
// (offset-major inside a block), so
//   - parallel shards own disjoint, contiguous output-row ranges — no
//     atomics, no write sharing;
//   - per output element, contributions arrive in exactly the offset-major
//     order of the scalar reference (sparse/testing/reference.hpp),
//     so float results are bit-identical to it for ANY thread count,
//     including 1 — the same determinism contract as the geometry engine;
//   - the scalar path's per-element `a == 0` early-out becomes a per-row
//     skip computed during the gather, keeping the microkernel's inner
//     loops branch-free and auto-vectorizable.
//
// All scratch (gather tiles, row flags, integer accumulators) comes from a
// ScratchArena owned by the engine: it grows to the high-water mark of the
// largest layer, then steady-state frames allocate nothing. Each
// runtime::Backend — and therefore each runtime::Session and each
// serve::Server worker — owns one engine, so serving traffic runs the
// rulebook-apply hot path with zero heap allocations per frame.
//
// The block partitions run on the process-wide esca::Executor
// (common/executor.hpp, sized by ESCA_THREADS), shared by every engine;
// dispatching them does not allocate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse {

/// Bump allocator for compute-path scratch. take<T>() hands out spans from
/// one contiguous slab; reset() rewinds the slab without releasing it, so a
/// steady-state reset/take cycle performs no heap allocations. Requests
/// that overflow the slab are served from fresh side slabs (previously
/// taken spans stay valid) and the next reset() consolidates to the new
/// high-water mark.
class ScratchArena {
 public:
  ScratchArena() = default;

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// An uninitialized span of n Ts (trivially destructible Ts only).
  /// Invalidated by reset(); NOT by later take() calls.
  template <typename T>
  std::span<T> take(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return {reinterpret_cast<T*>(raw_take(n * sizeof(T), alignof(T))), n};
  }

  /// Rewind: every outstanding span is invalidated, capacity is kept (and
  /// consolidated to the high-water mark when the last cycle overflowed).
  void reset();

  std::size_t capacity_bytes() const { return slab_bytes_; }

  /// Number of heap allocations this arena has performed — the
  /// steady-state-allocation test hook: after a warmup frame, the count
  /// must stay flat. Mirrored into the process-wide
  /// compute_arena_grows_counter().
  std::uint64_t grows() const { return grows_; }

 private:
  std::byte* raw_take(std::size_t bytes, std::size_t align);

  std::unique_ptr<std::byte[]> slab_;
  std::size_t slab_bytes_{0};
  std::size_t used_{0};          ///< bump offset into slab_
  std::size_t high_water_{0};    ///< total demand of the current cycle
  std::vector<std::unique_ptr<std::byte[]>> overflow_;
  std::uint64_t grows_{0};
};

/// Options for one ComputeEngine.
struct ComputeOptions {
  /// Partitions per rulebook application (capped at the out-row block
  /// count). 0 = the executor's size, throttled by the work available; an
  /// explicit N > 0 is honored exactly. Results are bit-identical for every
  /// value.
  int threads{0};
};

/// Process-wide count of ScratchArena heap allocations (every arena), the
/// registry counter `esca_compute_arena_grows_total` (obs::CounterGuard
/// baselines).
obs::Counter& compute_arena_grows_counter();

class ComputeEngine {
 public:
  explicit ComputeEngine(ComputeOptions options = {});

  ComputeEngine(const ComputeEngine&) = delete;
  ComputeEngine& operator=(const ComputeEngine&) = delete;

  /// The engine's scratch arena. Spans returned by accumulate() live here
  /// until the next apply/accumulate call on this engine.
  ScratchArena& arena() { return arena_; }

  /// Float path: out[j] += W[o]^T in[i] for every rule (i -> j) of every
  /// offset o. `rules.num_out_rows()` must equal output.size(); weights are
  /// [kernel_volume][cin][cout] row-major. Bit-identical to
  /// oracle::apply_rulebook_reference for any partition or thread count.
  void apply(const SparseTensor& input, const BlockedRuleBook& rules,
             std::span<const float> weights, SparseTensor& output);

  /// Raw-span float path (the SparseTensor overload's workhorse).
  void apply(std::span<const float> in_features, int cin, const BlockedRuleBook& rules,
             std::span<const float> weights, std::span<float> out_features, int cout);

  /// Quantized path: INT16 activations x INT8 weights accumulated into
  /// INT64 — the gold-model inner loop. Returns the arena-backed
  /// accumulator [num_out_rows x cout], zeroed then accumulated; valid
  /// until the next apply/accumulate on this engine.
  std::span<const std::int64_t> accumulate(std::span<const std::int16_t> in_features, int cin,
                                           const BlockedRuleBook& rules,
                                           std::span<const std::int8_t> weights, int cout);

 private:
  template <typename TIn, typename TW, typename TAcc>
  void run_blocks(std::span<const TIn> in_features, int cin, const BlockedRuleBook& rules,
                  std::span<const TW> weights, TAcc* out, int cout);

  /// Partitions for `total_macs` of work split into `blocks` (>= 1).
  int pick_parts(std::int64_t total_macs, int blocks) const;

  ScratchArena arena_;
  int threads_;  ///< ComputeOptions::threads
};

/// The calling thread's shared default engine (used by layer forwards
/// invoked without an explicit engine). One arena per thread; destroyed at
/// thread exit.
ComputeEngine& default_compute_engine();

}  // namespace esca::sparse
