// Semantic segmentation with SS U-Net on the simulated accelerator — the
// paper's §IV evaluation flow end to end:
//
//   synthetic indoor scene -> voxelize (192^3) -> float SS U-Net forward
//   (trace) -> quantize every Sub-Conv layer -> time them on ESCA (outputs
//   verified bit-exactly) -> per-layer cycle/GOPS report + per-point labels.
//
// Build & run:  ./build/examples/semantic_segmentation [sample=0] [csv=path]
#include <algorithm>
#include <cstdio>

#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/report.hpp"
#include "datasets/nyu_like.hpp"
#include "nn/metrics.hpp"
#include "nn/unet.hpp"
#include "runtime/engine.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

int main(int argc, char** argv) {
  using namespace esca;  // NOLINT(google-build-using-namespace): example main

  const Config args = Config::from_args(argc, argv);
  const auto sample = static_cast<std::size_t>(args.get_int("sample", 0));

  // Scene -> voxels (with ground-truth floor/wall/furniture labels).
  const datasets::NyuLikeDataset dataset({}, /*seed=*/7);
  const datasets::LabeledIndoorSample labeled = dataset.sample_labeled(sample);
  const pc::PointCloud& cloud = labeled.cloud;
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = 192});
  const auto input = sparse::SparseTensor::from_voxel_grid(grid, 1);
  std::printf("indoor scene: %zu points -> %zu voxels (192^3)\n", cloud.size(), input.size());

  // Float SS U-Net forward with trace.
  nn::SSUNetConfig net_cfg;
  net_cfg.base_planes = 16;
  net_cfg.levels = 3;
  net_cfg.reps_per_level = 2;
  net_cfg.num_classes = 13;  // NYU-style label set
  const nn::SSUNet net(net_cfg, /*seed=*/2022);
  std::vector<nn::TraceEntry> trace;
  const sparse::SparseTensor logits = net.forward(input, &trace);

  // Quantize + compile every Sub-Conv layer, run on the accelerator
  // (verify=true: every layer is checked bit-exactly against gold).
  runtime::Engine engine;
  const runtime::Plan plan = engine.compile(trace);
  const runtime::RunReport report = engine.run(plan);
  const core::NetworkRunStats stats = report.merged_stats();

  Table table("Per-layer accelerator report (bit-exact vs integer gold)");
  table.header({"Layer", "Cin", "Cout", "Sites", "Tiles", "Matches", "Cycles", "GOPS",
                "Scan-bound"});
  for (const auto& l : stats.layers) {
    const bool scan_bound =
        l.zero_removing.active_tiles * 512 * 3 >= l.sdmu.matches *
            ((l.in_channels + 15) / 16) * ((l.out_channels + 15) / 16);
    table.row({l.layer_name, std::to_string(l.in_channels), std::to_string(l.out_channels),
               std::to_string(l.sites), std::to_string(l.zero_removing.active_tiles),
               str::with_commas(l.sdmu.matches), str::with_commas(l.total_cycles),
               str::fixed(l.effective_gops, 1), scan_bound ? "yes" : "no"});
  }
  table.print();

  std::printf("\nnetwork total: %s, %s effective\n",
              units::seconds(stats.total_seconds()).c_str(),
              units::ops_per_second(stats.effective_gops() * 1e9).c_str());

  if (args.has("csv")) {
    const std::string csv_path = args.get_string("csv", "");
    core::write_layer_csv_file(csv_path, stats);
    std::printf("per-layer CSV written to %s\n", csv_path.c_str());
  }

  // Per-point labels (argmax over logits) — the task output.
  std::vector<int> histogram(static_cast<std::size_t>(net_cfg.num_classes), 0);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const auto f = logits.features(i);
    const auto best = std::max_element(f.begin(), f.end());
    ++histogram[static_cast<std::size_t>(best - f.begin())];
  }
  std::printf("\npredicted label histogram (untrained weights — structure demo):\n");
  for (int c = 0; c < net_cfg.num_classes; ++c) {
    if (histogram[static_cast<std::size_t>(c)] == 0) continue;
    std::printf("  class %2d: %d sites\n", c, histogram[static_cast<std::size_t>(c)]);
  }

  // Ground-truth demo with the metrics substrate: a geometric height/border
  // heuristic vs the synthetic scene labels (the network above is untrained;
  // this shows the evaluation pipeline a trained model would plug into).
  const geom::Aabb bounds = cloud.bounds();
  const geom::Vec3 extent = bounds.extent();
  nn::ConfusionMatrix cm(datasets::kNumIndoorClasses);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const geom::Vec3 rel{(cloud.position(i).x - bounds.lo.x) / extent.x,
                         (cloud.position(i).y - bounds.lo.y) / extent.y,
                         (cloud.position(i).z - bounds.lo.z) / extent.z};
    datasets::IndoorClass predicted = datasets::IndoorClass::kFurniture;
    if (rel.z < 0.04F) {
      predicted = datasets::IndoorClass::kFloor;
    } else if (rel.x > 0.96F || rel.y > 0.96F) {
      predicted = datasets::IndoorClass::kWall;
    }
    cm.add(static_cast<int>(predicted), static_cast<int>(labeled.labels[i]));
  }
  std::printf("\ngeometric-heuristic baseline vs ground truth: accuracy %.1f%%, mIoU %.1f%%\n",
              100.0 * cm.accuracy(), 100.0 * cm.mean_iou());
  return 0;
}
