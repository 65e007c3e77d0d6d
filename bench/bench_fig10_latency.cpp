// Reproduces Fig. 10: time consumption when processing one Sub-Conv layer
// on CPU / GPU / ESCA.
//
// The representative layer is a 16->16 channel 3^3 Sub-Conv on a
// ShapeNet-like 192^3 map (an encoder block of the benchmark SS U-Net).
// ESCA time comes from the cycle-level simulator; GPU and CPU times from
// the analytic device models; a measured wall-clock CPU run of our own
// gather-GEMM-scatter implementation is printed for reference.
//
// Usage: bench_fig10_latency [sample=0] [cin=16] [cout=16]
#include <algorithm>
#include <cstdio>
#include <string>

#include "baseline/cpu_baseline.hpp"
#include "baseline/device_models.hpp"
#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "nn/sparse_conv.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

void print_bar(const char* label, double ms, double max_ms) {
  const int width = static_cast<int>(52.0 * ms / max_ms);
  std::printf("  %-16s %s %.3f ms\n", label,
              (std::string(static_cast<std::size_t>(std::max(width, 1)), '#')).c_str(), ms);
}

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));
  const int cin = static_cast<int>(args.get_int("cin", 16));
  const int cout = static_cast<int>(args.get_int("cout", 16));

  std::printf("ESCA bench: Fig. 10 — one %dx%dx%d Sub-Conv layer (%d -> %d channels)\n\n", 3,
              3, 3, cin, cout);

  // Build the layer input: dataset geometry with cin feature channels.
  const sparse::SparseTensor geometry = bench::shapenet_tensor(sample);
  sparse::SparseTensor x = geometry.zeros_like(cin);
  Rng rng(bench::kSeed);
  for (float& v : x.raw_features()) v = rng.uniform_f(-1.0F, 1.0F);

  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
  conv.init_kaiming(rng);

  // One Plan, two ESCA engines (ideal and port-limited mask read; see
  // bench_table3): Plans are architecture-agnostic.
  runtime::Engine engine;
  const runtime::Plan plan = engine.compile_layer(conv, x, {.name = "fig10"});
  const core::LayerRunStats esca =
      engine.run(plan).frames.front().stats.layers.front();
  const double esca_ms = esca.total_seconds * 1e3;

  runtime::RuntimeConfig pl_rt;
  pl_rt.arch.mask_read_cycles = pl_rt.arch.k2();
  runtime::Engine engine_pl{pl_rt};
  const core::LayerRunStats esca_pl =
      engine_pl.run(plan).frames.front().stats.layers.front();
  const double esca_pl_ms = esca_pl.total_seconds * 1e3;

  // --- device models on the same workload -----------------------------------------
  baseline::SubConvWorkload w;
  w.sites = esca.sites;
  w.rules = esca.sdmu.matches;
  w.in_channels = cin;
  w.out_channels = cout;
  const auto gpu = baseline::model_gpu_subconv(w);
  const auto cpu = baseline::model_cpu_subconv(w);

  // --- measured CPU (our gather-GEMM-scatter on this machine) ---------------------
  const baseline::CpuRunResult measured = baseline::time_cpu_subconv(x, cout, 3, 3);

  const double max_ms = std::max({cpu.seconds * 1e3, gpu.seconds * 1e3, esca_ms});
  std::printf("workload: %lld sites, %lld matches, %lld MACs\n\n",
              static_cast<long long>(w.sites), static_cast<long long>(w.rules),
              static_cast<long long>(w.macs()));
  std::printf("Fig. 10 — time consumption (ms):\n");
  print_bar("CPU (model)", cpu.seconds * 1e3, max_ms);
  print_bar("GPU (model)", gpu.seconds * 1e3, max_ms);
  print_bar("ESCA (port-lim)", esca_pl_ms, max_ms);
  print_bar("ESCA (ideal)", esca_ms, max_ms);
  std::printf("\n");

  Table table("Fig. 10 summary (slowdowns vs the port-limited ESCA point)");
  table.header({"Device", "Time (ms)", "Slowdown", "Paper slowdown"});
  table.row({"CPU Xeon 6148 (model)", str::fixed(cpu.seconds * 1e3, 3),
             str::format("%.2fx", cpu.seconds / esca_pl.total_seconds), "8.41x"});
  table.row({"GPU Tesla P100 (model)", str::fixed(gpu.seconds * 1e3, 3),
             str::format("%.2fx", gpu.seconds / esca_pl.total_seconds), "1.89x"});
  table.row({"ESCA port-limited (sim)", str::fixed(esca_pl_ms, 3), "1.00x", "1.00x"});
  table.row({"ESCA ideal (sim)", str::fixed(esca_ms, 3),
             str::format("%.2fx", esca_ms / esca_pl_ms), "-"});
  table.print();

  std::printf(
      "\nmeasured CPU (this machine, our gather-GEMM-scatter): %.3f ms "
      "(rulebook %.3f ms + compute %.3f ms)\n",
      measured.total_seconds * 1e3, measured.rulebook_seconds * 1e3,
      measured.compute_seconds * 1e3);
  std::printf("ESCA cycles: %lld (scan-bound: %s), effective %.2f GOPS on this layer\n",
              static_cast<long long>(esca.total_cycles),
              esca.sdmu.matches < esca.zero_removing.active_tiles * 512 * 3 ? "yes" : "no",
              esca.effective_gops);
  return 0;
}
