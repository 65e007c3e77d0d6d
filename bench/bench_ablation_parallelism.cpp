// Ablation: compute-array parallelism (the §III.D/E design choice — the
// paper sets 16x16).
//
// Sweeps (IC, OC) parallelism, reporting simulated throughput on an SS U-Net
// encoder layer against the DSP/LUT cost from the resource model — the
// GOPS-vs-resources Pareto view a designer would use.
//
// Usage: bench_ablation_parallelism [sample=0]
#include <cstdio>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/accelerator.hpp"
#include "core/resource_model.hpp"

int main(int argc, char** argv) {
  using namespace esca;  // NOLINT(google-build-using-namespace): bench main

  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));
  const int cin = 32;
  const int cout = 32;

  std::printf("ESCA bench: ablation — compute parallelism (Sub-Conv %d->%d)\n\n", cin, cout);

  const sparse::LayerGeometry geometry = bench::shapenet_geometry(sample);
  const quant::QuantizedConv layer = bench::subconv_layer(cin, cout, 3, "par");

  Table table("Ablation: (IC, OC) parallelism — paper uses 16x16");
  table.header({"IC x OC", "Cycles", "GOPS", "Array util.", "DSP", "LUT (model)",
                "GOPS/DSP"});

  for (const int p : {4, 8, 16, 32}) {
    core::ArchConfig cfg;
    cfg.ic_parallel = p;
    cfg.oc_parallel = p;
    core::Accelerator accel{cfg};
    const core::LayerRunStats r = accel.run_layer(layer, geometry);
    const core::ResourceReport res = core::ResourceModel(cfg).estimate();
    table.row({str::format("%dx%d", p, p), str::with_commas(r.total_cycles),
               str::fixed(r.effective_gops, 2),
               str::percent(r.array_utilization(cfg.compute_parallelism()), 1),
               str::fixed(res.total_dsp(), 0), str::fixed(res.total_lut(), 0),
               str::fixed(r.effective_gops / res.total_dsp(), 3)});
  }
  table.print();

  std::printf(
      "\nReading: beyond the point where the mask-scan pipeline (not the MAC\n"
      "array) limits throughput, extra parallelism burns DSPs for little gain —\n"
      "why the paper stops at 16x16 (256 DSPs, ~10%% of the ZCU102).\n");
  return 0;
}
