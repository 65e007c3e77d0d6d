// Design-space exploration: sweep the ESCA architecture parameters and
// print a GOPS-vs-resources view using the fast analytic performance model,
// cross-checked against the cycle simulator at selected points.
//
// This is the tool a designer would use to re-derive the paper's operating
// point (16x16 array, 8^3 tiles, depth-16 FIFOs) for a different device or
// workload.
//
// Build & run:  ./build/examples/design_space_explorer [sample=0]
#include <cstdio>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/perf_model.hpp"
#include "core/resource_model.hpp"
#include "core/zero_removing.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/sparse_conv.hpp"
#include "runtime/engine.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

int main(int argc, char** argv) {
  using namespace esca;  // NOLINT(google-build-using-namespace): example main

  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));

  // Workload: a 32->32 encoder layer on a ShapeNet-like 192^3 map.
  const datasets::ShapeNetLikeDataset dataset({}, 20221014);
  const voxel::VoxelGrid grid = voxel::voxelize(dataset.sample(sample), {.resolution = 192});
  const auto geometry = sparse::SparseTensor::from_voxel_grid(grid, 1);
  const int channels = 32;
  sparse::SparseTensor x = geometry.zeros_like(channels);
  Rng rng(1);
  for (float& v : x.raw_features()) v = rng.uniform_f(-1.0F, 1.0F);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, channels, channels, 3);
  conv.init_kaiming(rng);

  // One Plan, many engines: Plans are backend- and architecture-agnostic,
  // so the sweep below re-runs the same compiled layer on differently
  // configured ESCA engines.
  runtime::Engine probe_engine;
  const runtime::Plan plan = probe_engine.compile_layer(conv, x, {.name = "dse"});

  std::printf("design-space exploration: %zu sites, %d->%d channels\n\n",
              plan.network.layers.front().input.size(), channels, channels);

  // Matches are architecture-independent; get them once from a probe run.
  const runtime::RunReport probe_run = probe_engine.run(plan);
  const std::int64_t matches = probe_run.frames.front().stats.layers.front().sdmu.matches;

  Table table("Architecture sweep (analytic model; * = cycle-sim cross-check)");
  table.header({"Array", "Tile", "GOPS (model)", "GOPS (sim)", "DSP", "BRAM", "LUT",
                "Scan-bound"});

  for (const int p : {8, 16, 32}) {
    for (const int tile : {4, 8, 16}) {
      core::ArchConfig cfg;
      cfg.ic_parallel = p;
      cfg.oc_parallel = p;
      cfg.tile_size = {tile, tile, tile};
      cfg.activation_buffer_bytes = 4 << 20;  // decouple buffer fit from the sweep
      cfg.mask_buffer_bytes = 4 << 20;

      const core::PerfModel model(cfg);
      core::ZeroRemovingStats zr_stats;
      (void)core::ZeroRemoving(cfg.tile_size).apply(geometry, &zr_stats);
      const core::PerfEstimate est =
          model.estimate_layer(zr_stats.active_tiles, matches, channels, channels);

      // Cycle-sim cross-check at the paper's tile size.
      std::string sim_gops = "-";
      if (tile == 8) {
        runtime::RuntimeConfig rt_cfg;
        rt_cfg.arch = cfg;
        runtime::Engine sim_engine{rt_cfg};
        const runtime::RunReport run = sim_engine.run(plan);
        sim_gops = str::fixed(run.frames.front().stats.layers.front().effective_gops, 1) + " *";
      }

      // Resource estimate at production buffer sizes (the enlarged sweep
      // buffers above only decouple the perf measurement from buffer fit).
      core::ArchConfig cfg_res;
      cfg_res.ic_parallel = p;
      cfg_res.oc_parallel = p;
      cfg_res.tile_size = cfg.tile_size;
      const core::ResourceReport res = core::ResourceModel(cfg_res).estimate();
      table.row({str::format("%dx%d", p, p), str::format("%d^3", tile),
                 str::fixed(est.effective_gops, 1), sim_gops,
                 str::fixed(res.total_dsp(), 0), str::fixed(res.total_bram36(), 1),
                 str::fixed(res.total_lut(), 0), est.scan_bound ? "yes" : "no"});
    }
  }
  table.print();

  std::printf(
      "\nThe paper's point (16x16, 8^3) is where the layer transitions from\n"
      "drain-bound to scan-bound: more DSPs past it cannot help this workload.\n");
  return 0;
}
