// Ablation: Sub-Conv kernel size (extension beyond the paper's fixed 3^3).
//
// The SDMU generalizes to any odd K: K^2 decoder columns/FIFOs, K-deep mask
// windows, halo radius K/2. This bench quantifies what a 5^3 (and 1^3)
// variant of ESCA would cost and deliver — the generality PointAcc-style
// designs argue for.
//
// Usage: bench_ablation_kernel_size [sample=0] [cin=16] [cout=16]
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
  const int cin = static_cast<int>(args.get_int("cin", 16));
  const int cout = static_cast<int>(args.get_int("cout", 16));

  std::printf("ESCA bench: ablation — Sub-Conv kernel size (%d -> %d channels)\n\n", cin,
              cout);

  Table table("Ablation: kernel size (paper fixes K = 3)");
  table.header({"K", "Columns (K^2)", "Matches", "MACs", "Cycles", "GOPS", "LUT (model)",
                "Matches = rules"});

  for (const int k : {1, 3, 5}) {
    const sparse::LayerGeometry geometry = bench::shapenet_geometry(sample, k);
    const quant::QuantizedConv layer =
        bench::subconv_layer(cin, cout, k, str::format("k%d", k));

    core::ArchConfig cfg;
    cfg.kernel_size = k;
    cfg.mask_read_cycles = k;  // one cycle per column mask word, as for K=3
    core::Accelerator accel{cfg};
    const core::LayerRunStats r = accel.run_layer(layer, geometry);
    const core::ResourceReport res = core::ResourceModel(cfg).estimate();

    table.row({std::to_string(k), std::to_string(cfg.k2()), str::with_commas(r.sdmu.matches),
               str::with_commas(r.mac_ops), str::with_commas(r.total_cycles),
               str::fixed(r.effective_gops, 2), str::fixed(res.total_lut(), 0),
               r.sdmu.matches == geometry.total_rules() ? "yes" : "NO"});
  }
  table.print();

  std::printf(
      "\nReading: K = 5 multiplies decoder columns (25 vs 9) and matches (~4-5x on\n"
      "surface data), and the deeper mask window raises scan cost — the quadratic\n"
      "decoder growth is why fixed-K designs like the paper's pick K = 3.\n");
  return 0;
}
