// End-to-end pipeline tests: synthetic dataset -> voxelization -> SS U-Net
// -> quantization -> accelerator, checking bit-exactness against the integer
// gold model and bounded quantization error against the float model.
#include <gtest/gtest.h>

#include "core/layer_compiler.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/unet.hpp"
#include "runtime/engine.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace esca {
namespace {

sparse::SparseTensor dataset_tensor(std::size_t index, int resolution) {
  datasets::ShapeNetLikeConfig cfg;
  cfg.samples_per_object = 1200;
  const datasets::ShapeNetLikeDataset ds(cfg, 2026);
  const pc::PointCloud cloud = ds.sample(index);
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = resolution});
  return sparse::SparseTensor::from_voxel_grid(grid, 1);
}

TEST(IntegrationTest, PointsToVoxelsToTensor) {
  const sparse::SparseTensor t = dataset_tensor(0, 64);
  EXPECT_GT(t.size(), 100U);
  EXPECT_EQ(t.spatial_extent(), (Coord3{64, 64, 64}));
  // Surface-like voxelization: overwhelmingly sparse.
  const double density =
      static_cast<double>(t.size()) / static_cast<double>(t.spatial_extent().volume());
  EXPECT_LT(density, 0.05);
}

TEST(IntegrationTest, FullNetworkOnAcceleratorBitExact) {
  const sparse::SparseTensor input = dataset_tensor(1, 48);

  nn::SSUNetConfig cfg;
  cfg.base_planes = 8;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  cfg.num_classes = 6;
  const nn::SSUNet net(cfg, 77);

  std::vector<nn::TraceEntry> trace;
  const sparse::SparseTensor logits = net.forward(input, &trace);
  EXPECT_EQ(logits.size(), input.size());

  runtime::Engine engine;
  const runtime::Plan plan = engine.compile(trace);
  ASSERT_GT(plan.layer_count(), 0U);

  // verify=true (the default) throws if any layer diverges from gold; the
  // simulator throws if any layer's match stream differs from its rulebook.
  const runtime::RunReport report = engine.run(plan);
  const core::NetworkRunStats stats = report.merged_stats();
  ASSERT_EQ(stats.layers.size(), plan.layer_count());
  EXPECT_GT(stats.effective_gops(), 0.0);
  for (std::size_t i = 0; i < stats.layers.size(); ++i) {
    EXPECT_EQ(stats.layers[i].sdmu.matches, plan.network.layers[i].geometry->total_rules());
  }
}

TEST(IntegrationTest, QuantizedOutputsTrackFloatTrace) {
  const sparse::SparseTensor input = dataset_tensor(2, 48);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 8;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 33);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(input, &trace);

  const core::CompiledNetwork compiled = core::LayerCompiler::compile(trace);
  const auto sub_ids = nn::subconv_entries(trace);
  ASSERT_EQ(sub_ids.size(), compiled.layers.size());

  for (std::size_t i = 0; i < compiled.layers.size(); ++i) {
    const nn::TraceEntry& e = trace[sub_ids[i]];
    const sparse::SparseTensor deq = compiled.layers[i].gold_output.to_float();
    const float err = sparse::max_abs_diff(e.output, deq);
    const float signal = e.output.abs_max();
    EXPECT_LT(err, 0.05F * signal + 1e-4F) << "layer " << e.name;
  }
}

TEST(IntegrationTest, NyuPipelineRunsEndToEnd) {
  datasets::NyuLikeConfig dcfg;
  dcfg.max_points = 800;
  const datasets::NyuLikeDataset ds(dcfg, 5);
  const pc::PointCloud cloud = ds.sample(0);
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = 48});
  const auto input = sparse::SparseTensor::from_voxel_grid(grid, 1);
  ASSERT_GT(input.size(), 50U);

  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 55);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(input, &trace);

  runtime::Engine engine;
  const core::NetworkRunStats stats = engine.run(engine.compile(trace)).merged_stats();
  // Zero removing must be doing real work on this sparse map.
  for (const auto& layer : stats.layers) {
    EXPECT_GT(layer.zero_removing.removing_ratio, 0.5);
  }
}

TEST(IntegrationTest, PerLayerStatsAggregateConsistently) {
  const sparse::SparseTensor input = dataset_tensor(3, 48);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 12);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(input, &trace);
  runtime::Engine engine;
  const core::NetworkRunStats stats =
      engine.run(engine.compile(trace), {}, {.verify = false}).merged_stats();

  std::int64_t cycles = 0;
  double seconds = 0.0;
  for (const auto& l : stats.layers) {
    cycles += l.total_cycles;
    seconds += l.total_seconds;
  }
  EXPECT_EQ(stats.total_cycles(), cycles);
  EXPECT_NEAR(stats.total_seconds(), seconds, 1e-12);
}

}  // namespace
}  // namespace esca
