// Pluggable execution backends behind one frame-execution interface.
//
// A Backend executes Plans (quantized layers + calibration inputs + integer
// gold outputs, lowered by Engine::compile) frame by frame. Two
// implementations ship: the cycle-level ESCA simulator (esca_backend) and
// the wall-clock-timed CPU path (cpu_backend). They differ only in how a
// layer is timed: run_frame() owns the one per-layer loop, takes every
// layer's output from the backend's sparse::ComputeEngine, verifies it and
// keeps it. All of them report through the same core::NetworkRunStats
// pathway, so tables/CSV from core/report work unchanged for any backend.
//
// Weight residency: backends that model an on-chip weight buffer keep the
// last executed Plan's weights "resident" — later frames of the same Plan
// skip the weight DRAM transfer (the paper's steady-state batch execution).
// Residency is keyed on the Plan's uid and survives across run_frame()
// calls, which is what Session builds its batched submission on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/layer_compiler.hpp"
#include "quant/qtensor.hpp"
#include "sim/energy.hpp"
#include "sparse/compute.hpp"

namespace esca::runtime {

/// A compiled, backend-agnostic executable: the quantized Sub-Conv layers of
/// one traced forward pass, each with its calibration input and integer gold
/// output. Produced by Engine::compile / make_plan; immutable after.
struct Plan {
  std::uint64_t uid{0};  ///< process-unique id (weight-residency key)
  core::CompiledNetwork network;

  std::size_t layer_count() const { return network.layers.size(); }
  std::int64_t total_macs() const { return network.total_macs(); }
  /// INT8 weight bytes over all layers (first-frame DRAM cost).
  std::int64_t weight_bytes() const;
};

/// Assign a fresh uid to a compiled network (Engine::compile does; call it
/// directly when compiling without an Engine). Throws
/// esca::InvalidArgument when a layer carries no compiled geometry.
Plan make_plan(core::CompiledNetwork network);

/// Shared ownership of an immutable Plan. Compiled networks are heavy
/// (quantized weights + calibration tensors + gold outputs), so anything
/// that replicates execution — one Session per serve worker, multi-backend
/// comparisons — shares one Plan instead of copying it. Every read path of
/// a Plan is const and lock-free, so concurrent executors are safe.
using PlanPtr = std::shared_ptr<const Plan>;

/// Wrap a Plan for sharing (serve workers, multi-session execution).
PlanPtr share_plan(Plan plan);

/// A batch of frames to push through a Plan. Each frame replays the Plan's
/// calibration inputs (steady-state replay — the paper's batch evaluation);
/// ids label the per-frame reports.
struct FrameBatch {
  std::vector<std::string> frame_ids{"frame0"};

  /// n identical frames named `frame0 .. frame<n-1>` (n >= 1).
  static FrameBatch replay(int n);
  static FrameBatch single(std::string id = "frame0");

  std::size_t size() const { return frame_ids.size(); }
};

/// Execution options for one submission (all frames of the batch).
struct RunOptions {
  /// Compute every layer's output with the backend's ComputeEngine and
  /// check it bit-exactly against the Plan's integer gold output; throws
  /// esca::InternalError on divergence. The ESCA simulator's own
  /// functional check (its match stream equals the rulebook) runs always.
  bool verify{true};
  /// Retain each frame's per-layer output tensors in the FrameReport.
  bool keep_outputs{false};
};

/// Stats and (optionally) outputs of one frame on one backend.
struct FrameReport {
  std::string frame_id;
  bool weights_resident{false};  ///< frame reused on-chip weights
  core::NetworkRunStats stats;   ///< one entry per layer, execution order
  /// Per-layer INT16 outputs; filled only when RunOptions::keep_outputs.
  std::vector<quant::QSparseTensor> outputs;

  std::int64_t dram_bytes_in() const;
  double total_seconds() const { return stats.total_seconds(); }
  /// Memory-system counters over this frame's layers (DRAM bytes/bursts,
  /// SRAM traffic, bank-conflict + SDMU FIFO stalls, roofline verdicts).
  core::MemorySummary memory_summary() const { return stats.memory_summary(); }
};

/// Aggregate result of a submission: per-frame reports plus flattened views
/// that feed the existing core/report tables and CSV writers.
struct RunReport {
  std::string backend_name;
  std::vector<FrameReport> frames;

  /// All (layer, frame) stats concatenated in execution order — the shape
  /// core::layer_report_table / write_layer_csv consume.
  core::NetworkRunStats merged_stats() const;

  std::int64_t total_cycles() const;
  std::int64_t total_mac_ops() const;
  double total_seconds() const;
  double effective_gops() const;
  /// Memory-system counters over every (layer, frame) of the submission.
  core::MemorySummary memory_summary() const;
};

/// Abstract execution backend: runs Plans.
class Backend {
 public:
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  virtual std::string name() const = 0;

  /// One-shot batched execution: residency is reset first, so the first
  /// frame always pays the weight DRAM transfer and the rest reuse it.
  RunReport run(const Plan& plan, const FrameBatch& batch = {},
                const RunOptions& options = {});

  /// Single-frame primitive carrying weight residency across calls (the
  /// Session building block). Running a different Plan drops residency.
  /// The one per-layer loop of every backend: time_layer() for the stats,
  /// then, when verify or keep_outputs asks for it, the layer's output from
  /// compute_engine(), checked and kept.
  FrameReport run_frame(const Plan& plan, const std::string& frame_id,
                        const RunOptions& options = {});

  /// True when the next frame of `plan` would reuse on-chip weights.
  bool weights_resident_for(const Plan& plan) const;

  /// Drop weight residency (e.g. another tenant used the device).
  void invalidate_weights() { resident_plan_uid_ = 0; }

  /// Event-based energy meter, for backends that integrate one (the ESCA
  /// simulator feeds it to core::PowerModel); nullptr otherwise.
  virtual const sim::EnergyMeter* energy_meter() const { return nullptr; }

  /// This backend's gather-GEMM-scatter engine: one scratch arena per
  /// backend (the threads are the process-wide esca::Executor's). Sessions
  /// execute through their backend, and each serve worker replicates a
  /// private backend, so every Session / serve worker runs the
  /// rulebook-apply hot path on a persistent arena — steady-state frames
  /// perform no heap allocations there.
  sparse::ComputeEngine& compute_engine() { return compute_; }

 protected:
  Backend() = default;

  /// This backend's statistics for one layer of a frame of `plan`: simulated,
  /// modelled or measured. `weights_resident` is the residency decision
  /// run_frame() already made; backends without a weight buffer ignore it.
  /// A backend whose timed run computes the layer's output anyway hands it
  /// back through `output`, so run_frame() does not compute it again.
  virtual core::LayerRunStats time_layer(const Plan& plan, const core::CompiledLayer& layer,
                                         bool weights_resident,
                                         std::optional<quant::QSparseTensor>& output) = 0;

  /// Whether this backend models an on-chip weight buffer at all.
  virtual bool supports_weight_residency() const { return false; }

 private:
  std::uint64_t resident_plan_uid_{0};  ///< 0 = nothing resident
  sparse::ComputeEngine compute_;
};

/// Shared verification helper: throws esca::InternalError when `output`
/// differs from the layer's integer gold output.
void check_bit_exact(const core::CompiledLayer& layer, const quant::QSparseTensor& output,
                     const std::string& backend_name);

}  // namespace esca::runtime
