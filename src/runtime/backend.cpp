#include "runtime/backend.hpp"

#include <atomic>
#include <utility>

#include "common/check.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"

namespace esca::runtime {

namespace {

std::uint64_t next_plan_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

}  // namespace

std::int64_t Plan::weight_bytes() const {
  std::int64_t bytes = 0;
  for (const core::CompiledLayer& l : network.layers) bytes += l.layer.weight_bytes();
  return bytes;
}

Plan make_plan(core::CompiledNetwork network) {
  for (const core::CompiledLayer& l : network.layers) {
    ESCA_REQUIRE(l.geometry != nullptr,
                 "layer '" << l.layer.name() << "' has no compiled geometry");
  }
  return Plan{next_plan_uid(), std::move(network)};
}

PlanPtr share_plan(Plan plan) { return std::make_shared<const Plan>(std::move(plan)); }

FrameBatch FrameBatch::replay(int n) {
  ESCA_REQUIRE(n >= 1, "batch must contain at least one frame, got " << n);
  FrameBatch batch;
  batch.frame_ids.clear();
  for (int i = 0; i < n; ++i) batch.frame_ids.push_back("frame" + std::to_string(i));
  return batch;
}

FrameBatch FrameBatch::single(std::string id) {
  FrameBatch batch;
  batch.frame_ids = {std::move(id)};
  return batch;
}

std::int64_t FrameReport::dram_bytes_in() const {
  std::int64_t bytes = 0;
  for (const core::LayerRunStats& l : stats.layers) bytes += l.dram_bytes_in;
  return bytes;
}

core::MemorySummary RunReport::memory_summary() const {
  core::MemorySummary m;
  for (const FrameReport& frame : frames) m.merge(frame.stats.memory_summary());
  return m;
}

core::NetworkRunStats RunReport::merged_stats() const {
  core::NetworkRunStats merged;
  for (const FrameReport& frame : frames) {
    merged.layers.insert(merged.layers.end(), frame.stats.layers.begin(),
                         frame.stats.layers.end());
  }
  return merged;
}

std::int64_t RunReport::total_cycles() const {
  std::int64_t cycles = 0;
  for (const FrameReport& frame : frames) cycles += frame.stats.total_cycles();
  return cycles;
}

std::int64_t RunReport::total_mac_ops() const {
  std::int64_t macs = 0;
  for (const FrameReport& frame : frames) macs += frame.stats.total_mac_ops();
  return macs;
}

double RunReport::total_seconds() const {
  double seconds = 0.0;
  for (const FrameReport& frame : frames) seconds += frame.stats.total_seconds();
  return seconds;
}

double RunReport::effective_gops() const {
  const double seconds = total_seconds();
  if (seconds <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(total_mac_ops()) / seconds / 1e9;
}

RunReport Backend::run(const Plan& plan, const FrameBatch& batch,
                       const RunOptions& options) {
  ESCA_REQUIRE(batch.size() >= 1, "batch must contain at least one frame");
  invalidate_weights();
  RunReport report;
  report.backend_name = name();
  for (const std::string& frame_id : batch.frame_ids) {
    report.frames.push_back(run_frame(plan, frame_id, options));
  }
  return report;
}

FrameReport Backend::run_frame(const Plan& plan, const std::string& frame_id,
                               const RunOptions& options) {
  ESCA_REQUIRE(plan.uid != 0, "plan was not produced by compile()/make_plan()");
  ESCA_REQUIRE(!plan.network.layers.empty(), "plan has no layers to execute");
  // Chaos sites: artificial execution latency, then an execution failure
  // (spec `nonstd` throws a non-std::exception type here — the serve worker
  // catch (...) hardening target). Both fire before the first layer, so a
  // failed frame never half-updates backend state or weight residency.
  fault::maybe_delay("runtime.run.delay");
  fault::maybe_throw("runtime.run");
  const bool resident = weights_resident_for(plan);
  obs::Span span("runtime.frame");
  span.arg("layers", plan.network.layers.size());
  span.arg("weights_resident", static_cast<std::int64_t>(resident));

  FrameReport report;
  report.frame_id = frame_id;
  report.weights_resident = resident;
  for (std::size_t i = 0; i < plan.network.layers.size(); ++i) {
    const core::CompiledLayer& cl = plan.network.layers[i];
    obs::Span layer_span("runtime.layer");
    layer_span.arg("layer", i);
    std::optional<quant::QSparseTensor> output;
    const core::LayerRunStats& stats =
        report.stats.layers.emplace_back(time_layer(plan, cl, resident, output));
    // Roofline verdict + DRAM traffic on the span: a Perfetto timeline shows
    // which layers the memory model calls memory-bound without cross-
    // referencing the report tables.
    layer_span.arg("bound", stats.bound_verdict());
    layer_span.arg("dram_bytes", stats.dram_bytes_in + stats.dram_bytes_out);
    if (!options.verify && !options.keep_outputs) continue;
    if (!output) output = cl.run_gold(&compute_engine());
    if (options.verify) check_bit_exact(cl, *output, name());
    if (options.keep_outputs) report.outputs.push_back(std::move(*output));
  }
  if (supports_weight_residency()) resident_plan_uid_ = plan.uid;
  return report;
}

bool Backend::weights_resident_for(const Plan& plan) const {
  return supports_weight_residency() && resident_plan_uid_ == plan.uid && plan.uid != 0;
}

void check_bit_exact(const core::CompiledLayer& layer, const quant::QSparseTensor& output,
                     const std::string& backend_name) {
  ESCA_CHECK(output == layer.gold_output,
             backend_name << " output diverges from integer gold model in layer '"
                          << layer.layer.name() << "'");
}

}  // namespace esca::runtime
