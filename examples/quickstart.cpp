// Quickstart: the shortest path through the public API.
//
//   1. generate a synthetic object point cloud,
//   2. voxelize it into a sparse tensor,
//   3. compile one submanifold convolution layer with the runtime Engine
//      (calibration + INT8/INT16 quantization + integer gold output), and
//   4. time it on the simulated ESCA accelerator (its match stream checked
//      against the rulebook) and verify the compute engine's output
//      bit-exactly against the integer gold model.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/sparse_conv.hpp"
#include "runtime/engine.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

int main() {
  using namespace esca;  // NOLINT(google-build-using-namespace): example main

  // 1. A chair-like object, sampled on its surfaces.
  Rng rng(42);
  const datasets::ShapeNetLikeConfig dataset_config;
  const pc::PointCloud cloud =
      datasets::make_object_cloud(datasets::ShapeCategory::kChair, dataset_config, rng);
  std::printf("point cloud: %zu points\n", cloud.size());

  // 2. Voxelize at the paper's 192^3 resolution.
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = 192});
  const auto input = sparse::SparseTensor::from_voxel_grid(grid, /*channels=*/1);
  std::printf("voxelized: %zu active sites, %.4f%% density\n", input.size(),
              100.0 * static_cast<double>(input.size()) /
                  static_cast<double>(grid.extent.volume()));

  // 3. An Engine over the default ESCA backend (the paper's ZCU102 point:
  //    8^3 tiles, 16x16 MAC array, 270 MHz) compiles a 1 -> 16 channel
  //    Sub-Conv layer: scale calibration, INT8 weights / INT16 activations,
  //    integer gold output.
  runtime::Engine engine;
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 16, /*kernel_size=*/3);
  conv.init_kaiming(rng);
  const runtime::Plan plan =
      engine.compile_layer(conv, input, {.name = "quickstart"});

  // 4. Run one frame. The simulator throws if its match stream ever
  //    diverged from the rulebook; verify=true (the default) throws if the
  //    layer output diverged from the integer gold model.
  const runtime::RunReport report = engine.run(plan);
  const core::LayerRunStats& stats = report.frames.front().stats.layers.front();

  std::printf("\naccelerator run (backend '%s'):\n", report.backend_name.c_str());
  std::printf("  matches = rulebook      : yes (checked by the simulator)\n");
  std::printf("  output vs gold model    : bit-exact (verified)\n");
  std::printf("  zero removing           : %lld of %lld tiles kept (%.2f%% removed)\n",
              static_cast<long long>(stats.zero_removing.active_tiles),
              static_cast<long long>(stats.zero_removing.total_tiles),
              100.0 * stats.zero_removing.removing_ratio);
  std::printf("  matches                 : %lld (%lld MACs)\n",
              static_cast<long long>(stats.sdmu.matches),
              static_cast<long long>(stats.mac_ops));
  std::printf("  cycles @ 270 MHz        : %lld (%s)\n",
              static_cast<long long>(stats.total_cycles),
              units::seconds(stats.total_seconds).c_str());
  std::printf("  effective throughput    : %s\n",
              units::ops_per_second(stats.effective_gops * 1e9).c_str());
  return 0;
}
