// LiDAR-style pipeline (the paper's Fig. 1): a simulated spinning-scanner
// sweep of an outdoor-ish scene -> voxelize -> tile-based zero removing ->
// one quantized Sub-Conv feature-extraction layer on the accelerator ->
// write the labelled cloud to an .xyz file.
//
// Build & run:  ./build/examples/lidar_pipeline [out=/tmp/lidar_features.xyz]
#include <cmath>
#include <cstdio>
#include <numbers>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "datasets/depth_camera.hpp"
#include "nn/sparse_conv.hpp"
#include "pointcloud/io.hpp"
#include "runtime/engine.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): example main

/// A rotating single-beam scanner: rays swept over azimuth x elevation, cast
/// into a street-like scene of ground plane + building/vehicle boxes.
pc::PointCloud lidar_sweep(const datasets::Scene& scene, int azimuth_steps,
                           int elevation_steps) {
  pc::PointCloud cloud;
  const geom::Vec3 origin{0.0F, 0.0F, 1.8F};  // sensor height
  for (int e = 0; e < elevation_steps; ++e) {
    // -15 .. +2 degrees, velodyne-like.
    const float elev = -0.26F + 0.30F * static_cast<float>(e) /
                                    static_cast<float>(elevation_steps);
    for (int a = 0; a < azimuth_steps; ++a) {
      const float azim = 2.0F * std::numbers::pi_v<float> * static_cast<float>(a) /
                         static_cast<float>(azimuth_steps);
      const geom::Vec3 dir{std::cos(azim) * std::cos(elev), std::sin(azim) * std::cos(elev),
                           std::sin(elev)};
      const auto t = scene.raycast({origin, dir});
      if (!t || *t > 40.0F) continue;
      cloud.add(origin + dir * (*t), 1.0F / (1.0F + *t));
    }
  }
  return cloud;
}

datasets::Scene street_scene(Rng& rng) {
  datasets::Scene scene;
  // Ground.
  scene.add_rect({'z', 0.0F, {-50, -50, 0}, {50, 50, 0}});
  // Buildings along both sides, vehicles near the center.
  for (int i = 0; i < 6; ++i) {
    const float x = -30.0F + 12.0F * static_cast<float>(i);
    for (const float side : {-12.0F, 12.0F}) {
      geom::Aabb building;
      const float w = static_cast<float>(rng.uniform(4.0, 8.0));
      const float h = static_cast<float>(rng.uniform(6.0, 14.0));
      building.expand({x, side - w * 0.5F, 0.0F});
      building.expand({x + w, side + w * 0.5F, h});
      scene.add_box(building);
    }
  }
  for (int i = 0; i < 4; ++i) {
    geom::Aabb car;
    const float x = static_cast<float>(rng.uniform(-20.0, 20.0));
    const float y = static_cast<float>(rng.uniform(-5.0, 5.0));
    car.expand({x, y, 0.0F});
    car.expand({x + 4.2F, y + 1.8F, 1.5F});
    scene.add_box(car);
  }
  return scene;
}

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);
  const std::string out_path = args.get_string("out", "/tmp/lidar_features.xyz");

  Rng rng(99);
  const datasets::Scene scene = street_scene(rng);
  pc::PointCloud cloud = lidar_sweep(scene, /*azimuth_steps=*/900, /*elevation_steps=*/32);
  std::printf("LiDAR sweep: %zu returns\n", cloud.size());

  cloud.normalize_unit_cube();
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = 192});
  const auto input = sparse::SparseTensor::from_voxel_grid(grid, 1);
  std::printf("voxelized: %zu sites (%.4f%% density)\n", input.size(),
              100.0 * static_cast<double>(input.size()) /
                  static_cast<double>(grid.extent.volume()));

  // One 1 -> 8 feature-extraction Sub-Conv, compiled and run through the
  // runtime Engine on the simulated accelerator.
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 8, 3);
  conv.init_kaiming(rng);
  runtime::Engine engine;
  const runtime::Plan plan =
      engine.compile_layer(conv, input, {.relu = true, .name = "lidar"});
  const runtime::RunReport report =
      engine.run(plan, runtime::FrameBatch::single("sweep0"), {.keep_outputs = true});
  const runtime::FrameReport& frame = report.frames.front();
  const core::LayerRunStats& stats = frame.stats.layers.front();
  std::printf("accelerator: %lld tiles, %lld matches, %s, %.1f GOPS\n",
              static_cast<long long>(stats.zero_removing.active_tiles),
              static_cast<long long>(stats.sdmu.matches),
              units::seconds(stats.total_seconds).c_str(), stats.effective_gops);

  // Export: voxel centers with their strongest feature response.
  const quant::QSparseTensor& output = frame.outputs.front();
  const float out_scale = plan.network.layers.front().layer.out_scale();
  pc::PointCloud labelled;
  for (std::size_t i = 0; i < output.size(); ++i) {
    const Coord3 c = output.coord(i);
    const auto f = output.features(i);
    std::int16_t strongest = 0;
    for (const std::int16_t v : f) {
      if (v > strongest) strongest = v;
    }
    labelled.add({(static_cast<float>(c.x) + 0.5F) / 192.0F,
                  (static_cast<float>(c.y) + 0.5F) / 192.0F,
                  (static_cast<float>(c.z) + 0.5F) / 192.0F},
                 static_cast<float>(strongest) * out_scale);
  }
  pc::write_xyz_file(out_path, labelled);
  std::printf("wrote %zu feature points to %s\n", labelled.size(), out_path.c_str());
  return 0;
}
