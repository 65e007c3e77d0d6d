// Memory-hierarchy sweep: on-chip buffer capacity x global-buffer banking x
// dataflow schedule on the SS U-Net benchmark network.
//
// Every sweep point runs the full network through the cycle-level ESCA
// backend (2 frames, so both the cold and the weights-resident traffic are
// exercised) and cross-checks the backend's per-layer DRAM bytes against
// the sim::mem::MemoryTrafficModel closed form — the two must match
// EXACTLY, every layer, every point. The sweep is chosen so the roofline
// verdict flips: starved buffers force weight-chunk re-streaming
// (memory-bound), ample buffers leave the SDMU scan as the limiter
// (compute-bound); the bench asserts both verdicts occur.
//
// Usage: bench_mem_hierarchy [resolution=96] [frames=2] [smoke=0]
// smoke=1 shrinks the workload to the one CI runs.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "runtime/engine.hpp"
#include "runtime/esca_backend.hpp"
#include "sim/mem/traffic_model.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

/// Rebuild every layer's traffic from its reported inputs and require the
/// backend's DRAM bytes to match the closed form bit for bit.
void check_closed_form(const core::ArchConfig& cfg, const runtime::RunReport& report) {
  const sim::mem::MemoryTrafficModel model(cfg.traffic_model_config());
  for (const runtime::FrameReport& frame : report.frames) {
    for (const core::LayerRunStats& l : frame.stats.layers) {
      const sim::mem::LayerTraffic t = model.layer_traffic(l.traffic_input);
      ESCA_CHECK(t.dram_bytes_in() == l.dram_bytes_in &&
                     t.dram_bytes_out() == l.dram_bytes_out &&
                     t.dram_bursts() == l.traffic.dram_bursts(),
                 "closed form diverged from backend on layer '"
                     << l.layer_name << "': " << t.dram_bytes_in() << "/"
                     << t.dram_bytes_out() << " vs " << l.dram_bytes_in << "/"
                     << l.dram_bytes_out);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const int resolution = static_cast<int>(cfg.get_int("resolution", smoke ? 48 : 96));
  const int frames = static_cast<int>(cfg.get_int("frames", 2));
  ESCA_REQUIRE(frames >= 2, "need >= 2 frames (cold + weights-resident traffic)");

  std::printf(
      "ESCA bench: memory hierarchy — buffer capacity x banks x dataflow\n"
      "(SS U-Net m=16 on ShapeNet-like at %d^3, %d frames per point; per-layer DRAM\n"
      " bytes cross-checked EXACTLY against the sim::mem closed form)\n\n",
      resolution, frames);

  const sparse::SparseTensor input = bench::shapenet_tensor(0, resolution);
  const bench::NetworkWorkload workload = bench::benchmark_network(input);

  const std::vector<double> scales =
      smoke ? std::vector<double>{1.0 / 256.0, 1.0} : std::vector<double>{1.0 / 256.0, 1.0, 8.0};
  const std::vector<int> bank_counts = smoke ? std::vector<int>{1, 16} : std::vector<int>{1, 4, 16};

  Table table("MEMORY HIERARCHY: buffer scale x banks x dataflow");
  table.header({"Dataflow", "Scale", "Banks", "DRAM (MB)", "Bursts", "SRAM R/W (MB)",
                "Bank stalls", "Port stalls", "Time (ms)", "GOPS", "Verdict (m/c)"});

  int memory_bound_points = 0;
  int compute_bound_points = 0;
  for (const auto dataflow :
       {sim::mem::Dataflow::kWeightStationary, sim::mem::Dataflow::kOutputStationary}) {
    for (const double scale : scales) {
      for (const int banks : bank_counts) {
        const bench::SweepPoint point{scale, banks, dataflow};
        const core::ArchConfig arch = bench::sweep_config(point);
        runtime::EscaBackend backend(arch);
        const runtime::Plan plan = runtime::make_plan(workload.compiled);
        const runtime::RunReport report =
            backend.run(plan, runtime::FrameBatch::replay(frames), {.verify = false});
        check_closed_form(arch, report);

        const core::MemorySummary mem = report.memory_summary();
        if (mem.memory_bound_layers > 0) ++memory_bound_points;
        if (mem.compute_bound_layers > 0) ++compute_bound_points;
        const auto mb = [](std::int64_t bytes) {
          return static_cast<double>(bytes) / (1024.0 * 1024.0);
        };
        const double ms = report.total_seconds() * 1e3;

        table.row({to_string(dataflow), str::format("1/%g", 1.0 / scale),
                   std::to_string(banks),
                   str::format("%.2f", mb(mem.dram_bytes_in + mem.dram_bytes_out)),
                   str::with_commas(mem.dram_bursts),
                   str::format("%.2f/%.2f", mb(mem.sram_read_bytes), mb(mem.sram_write_bytes)),
                   str::with_commas(mem.bank_conflict_stalls), str::with_commas(mem.port_stalls),
                   str::format("%.2f", ms), str::fixed(report.effective_gops(), 2),
                   str::format("%d/%d", mem.memory_bound_layers, mem.compute_bound_layers)});
      }
    }
  }

  table.print();
  ESCA_CHECK(memory_bound_points > 0 && compute_bound_points > 0,
             "sweep did not produce both roofline verdicts (memory-bound points: "
                 << memory_bound_points << ", compute-bound points: " << compute_bound_points
                 << ")");
  std::printf(
      "\nReading: at 1/256 buffer capacity the weight-stationary schedule re-streams\n"
      "activations once per weight chunk and tiles overflow the activation buffer —\n"
      "DRAM time overtakes the SDMU scan (memory-bound). At full capacity the same\n"
      "network is compute-bound and extra banking only reduces conflict stalls.\n");
  return 0;
}
