// Ablation: tile size (the §III.A design choice — the paper picks 8^3).
//
// Sweeps the zero-removing tile size and reports, for a representative
// Sub-Conv layer: active tiles, halo-duplication overhead, simulated cycles
// and effective GOPS. Shows the trade-off the paper describes: finer tiles
// remove more zeros but add halo/control overhead.
//
// Usage: bench_ablation_tile_size [sample=0] [cin=16] [cout=16]
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

  std::printf("ESCA bench: ablation — zero-removing tile size (Sub-Conv %d->%d)\n\n", cin,
              cout);

  const sparse::LayerGeometry geometry = bench::shapenet_geometry(sample);
  const quant::QuantizedConv layer = bench::subconv_layer(cin, cout, 3, "abl");

  Table table("Ablation: tile size (8^3 is the paper's choice)");
  table.header({"Tile", "Active tiles", "Removing ratio", "Halo dup.", "Cycles", "Time (ms)",
                "GOPS"});

  for (const int tile : {4, 6, 8, 12, 16, 24}) {
    core::ArchConfig cfg;
    cfg.tile_size = {tile, tile, tile};
    // Larger tiles need larger working sets; size buffers so the sweep
    // isolates the matching-pipeline effect from buffer spills.
    cfg.activation_buffer_bytes = 4 << 20;
    cfg.mask_buffer_bytes = 4 << 20;
    core::Accelerator accel{cfg};
    const core::LayerRunStats r = accel.run_layer(layer, geometry);
    const double halo_frac = r.encoding.core_sites > 0
                                 ? static_cast<double>(r.encoding.halo_duplicates) /
                                       static_cast<double>(r.encoding.core_sites)
                                 : 0.0;
    table.row({str::format("%d^3", tile), std::to_string(r.zero_removing.active_tiles),
               str::percent(r.zero_removing.removing_ratio, 2), str::percent(halo_frac, 1),
               str::with_commas(r.total_cycles), str::fixed(r.total_seconds * 1e3, 3),
               str::fixed(r.effective_gops, 2)});
  }
  table.print();

  std::printf(
      "\nReading: the mask scan is the bottleneck on these sparse maps, so finer\n"
      "tiles (fewer kept voxels) win on raw cycles — but they pay steeply in halo\n"
      "duplication (DRAM traffic and activation-buffer copies; >150%% at 4^3) and\n"
      "in per-tile management. The paper's 8x8x8 keeps the halo overhead near\n"
      "one copy per site while preserving >99%% zero removal.\n");
  return 0;
}
