// Ablation: match-FIFO depth (the §III.C FIFO group).
//
// Sweeps the per-column FIFO depth and reports cycles, stall counts and the
// observed high-water mark — how much decoupling the matching pipeline needs
// between fetch engines and the MUX.
//
// Usage: bench_ablation_fifo_depth [sample=0] [cin=16] [cout=16]
#include <cstdio>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/accelerator.hpp"

int main(int argc, char** argv) {
  using namespace esca;  // NOLINT(google-build-using-namespace): bench main

  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));
  const int cin = static_cast<int>(args.get_int("cin", 16));
  const int cout = static_cast<int>(args.get_int("cout", 16));

  std::printf("ESCA bench: ablation — FIFO group depth (Sub-Conv %d->%d)\n\n", cin, cout);

  const sparse::LayerGeometry geometry = bench::shapenet_geometry(sample);
  const quant::QuantizedConv layer = bench::subconv_layer(cin, cout, 3, "fifo");

  Table table("Ablation: per-column FIFO depth — paper-style design point is 16");
  table.header({"Depth", "Cycles", "Fetch stalls", "Scan stalls", "MUX idle", "High water",
                "GOPS"});

  for (const int depth : {1, 2, 4, 8, 16, 32}) {
    core::ArchConfig cfg;
    cfg.fifo_depth = depth;
    core::Accelerator accel{cfg};
    const core::LayerRunStats r = accel.run_layer(layer, geometry);
    table.row({std::to_string(depth), str::with_commas(r.total_cycles),
               str::with_commas(r.sdmu.fetch_stall_cycles),
               str::with_commas(r.sdmu.scan_stall_cycles),
               str::with_commas(r.sdmu.mux_idle_cycles), std::to_string(r.sdmu.fifo_high_water),
               str::fixed(r.effective_gops, 2)});
  }
  table.print();

  std::printf(
      "\nReading: depth 1-2 throttles the fetch engines (stalls propagate to the\n"
      "scan); past the observed high-water mark extra depth buys nothing. Every\n"
      "depth matches the same rules — only timing changes.\n");
  return 0;
}
