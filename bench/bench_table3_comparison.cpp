// Reproduces Table III: comparison with other implementations for point
// cloud (GPU, the cited FPGA [19], and ESCA).
//
// The benchmark SS U-Net runs on the cycle-level ESCA simulator (match
// stream checked against every layer's rulebook, layer outputs verified
// against the integer gold model); the same per-layer workloads drive the
// analytic P100 model. Power comes from the event-based
// power model. See DESIGN.md §2 for the substitution rationale.
//
// Usage: bench_table3_comparison [sample=0]
#include <cstdio>

#include "baseline/device_models.hpp"
#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/power_model.hpp"
#include "core/resource_model.hpp"
#include "runtime/engine.hpp"

int main(int argc, char** argv) {
  using namespace esca;  // NOLINT(google-build-using-namespace): bench main

  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));

  std::printf("ESCA bench: Table III — SS U-Net (m=16) on a ShapeNet-like 192^3 map\n\n");

  const sparse::SparseTensor input = bench::shapenet_tensor(sample);
  std::printf("input: %zu active sites (%.4f%% density)\n", input.size(),
              100.0 * static_cast<double>(input.size()) /
                  static_cast<double>(input.spatial_extent().volume()));

  bench::NetworkWorkload workload = bench::benchmark_network(input);
  const runtime::Plan plan = runtime::make_plan(std::move(workload.compiled));
  std::printf("network: %zu Sub-Conv layers, %s effective MACs\n\n", plan.layer_count(),
              str::with_commas(plan.total_macs()).c_str());

  // --- ESCA (cycle-level simulation, outputs verified) ------------------------
  // Two operating points: the idealized microarchitecture (all K^2 column
  // masks read in parallel) and a port-limited variant where the mask buffer
  // serves one column per cycle (K^2 cycles per SRF) — the board-level
  // bottleneck that best explains the paper's measured throughput
  // (EXPERIMENTS.md discusses the calibration).
  const core::ArchConfig cfg;
  runtime::Engine engine;
  const core::NetworkRunStats esca_stats = engine.run(plan).merged_stats();

  runtime::RuntimeConfig pl_rt;
  pl_rt.arch.mask_read_cycles = cfg.k2();
  const core::ArchConfig& port_limited = pl_rt.arch;
  runtime::Engine engine_pl{pl_rt};
  const core::NetworkRunStats pl_stats = engine_pl.run(plan).merged_stats();

  const double esca_seconds = esca_stats.total_seconds();
  const double esca_gops = esca_stats.effective_gops();
  const double pl_seconds = pl_stats.total_seconds();
  const double pl_gops = pl_stats.effective_gops();
  const core::ResourceReport resources = core::ResourceModel(cfg).estimate();
  const core::PowerReport power = core::PowerModel(cfg).estimate(
      *engine.backend().energy_meter(), esca_seconds, resources.total_bram36());
  const core::PowerReport pl_power =
      core::PowerModel(port_limited)
          .estimate(*engine_pl.backend().energy_meter(), pl_seconds,
                    resources.total_bram36());

  // --- GPU / CPU models on the same per-layer workloads -----------------------
  double gpu_seconds = 0.0;
  double cpu_seconds = 0.0;
  double gpu_power = 0.0;
  double cpu_power = 0.0;
  std::int64_t total_macs = 0;
  for (std::size_t i = 0; i < esca_stats.layers.size(); ++i) {
    const core::LayerRunStats& l = esca_stats.layers[i];
    baseline::SubConvWorkload w;
    w.sites = l.sites;
    w.rules = l.sdmu.matches;
    w.in_channels = l.in_channels;
    w.out_channels = l.out_channels;
    const auto gpu = baseline::model_gpu_subconv(w);
    const auto cpu = baseline::model_cpu_subconv(w);
    gpu_seconds += gpu.seconds;
    cpu_seconds += cpu.seconds;
    gpu_power = gpu.power_w;
    cpu_power = cpu.power_w;
    total_macs += w.macs();
  }
  const double flop = 2.0 * static_cast<double>(total_macs);
  const double gpu_gops = flop / gpu_seconds / 1e9;
  const auto ref = baseline::reference_opointnet_fpga();

  // --- Table III ----------------------------------------------------------------
  Table table("TABLE III: COMPARISON WITH OTHER IMPLEMENTATIONS FOR POINT CLOUD");
  table.header({"", "GPU (model)", "[19] (quoted)", "ours (ideal sim)",
                "ours (port-limited sim)", "paper: GPU", "paper: ours"});
  table.row({"Device", "Tesla P100", "Zynq XC7Z045", "ZCU102 (sim)", "ZCU102 (sim)",
             "Tesla P100", "ZCU102"});
  table.row({"Frequency (MHz)", "-", "100", str::fixed(cfg.frequency_hz / 1e6, 0),
             str::fixed(cfg.frequency_hz / 1e6, 0), "-", "270"});
  table.row({"Model", "SS U-Net", "O-Pointnet", "SS U-Net", "SS U-Net", "SS U-Net",
             "SS U-Net"});
  table.row({"Precision", "FP32", "INT16", "INT8/INT16", "INT8/INT16", "FP32",
             "INT8/INT16"});
  table.row({"Power (W)", str::fixed(gpu_power, 2), str::fixed(ref.power_w, 2),
             str::fixed(power.total_w, 2), str::fixed(pl_power.total_w, 2), "90.56",
             "3.45"});
  table.row({"Performance (GOPS)", str::fixed(gpu_gops, 2),
             str::fixed(ref.effective_gops, 2), str::fixed(esca_gops, 2),
             str::fixed(pl_gops, 2), "9.40", "17.73"});
  table.row({"Power Eff. (GOPS/W)", str::fixed(gpu_gops / gpu_power, 2),
             str::fixed(ref.gops_per_watt(), 2), str::fixed(esca_gops / power.total_w, 2),
             str::fixed(pl_gops / pl_power.total_w, 2), "0.10", "5.14"});
  table.print();

  std::printf("\nheadline ratios vs GPU (paper: ~1.88x perf, ~51x power efficiency):\n");
  std::printf("  ideal sim        : %.2fx perf, %.1fx power eff.\n", esca_gops / gpu_gops,
              (esca_gops / power.total_w) / (gpu_gops / gpu_power));
  std::printf("  port-limited sim : %.2fx perf, %.1fx power eff.\n", pl_gops / gpu_gops,
              (pl_gops / pl_power.total_w) / (gpu_gops / gpu_power));
  std::printf("\nESCA breakdown: %s total, compute %s | power: static %.2f W, clock %.2f W, "
              "compute %.2f W, memory %.2f W\n",
              units::seconds(esca_seconds).c_str(),
              units::seconds(esca_seconds).c_str(), power.static_w, power.clock_w,
              power.compute_w, power.memory_w);
  std::printf("(CPU model reference: %s for the network, %.2f GOPS)\n",
              units::seconds(cpu_seconds).c_str(), flop / cpu_seconds / 1e9);
  (void)cpu_power;
  return 0;
}
