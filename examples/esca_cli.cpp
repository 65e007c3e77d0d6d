// esca_cli — command-line front end to the library.
//
//   esca_cli stats    in=<cloud.{ply,xyz}> [resolution=192]
//       voxelize a cloud and print occupancy/tile statistics
//   esca_cli run      in=<cloud.{ply,xyz}> [cin=1] [cout=16] [resolution=192]
//                     [backend=esca|cpu] [batch=1]
//       run one quantized Sub-Conv layer on the selected runtime backend;
//       batch > 1 submits a multi-frame session (weights resident after
//       the first frame)
//   esca_cli resources [ic=16] [oc=16]
//       print the Table II resource estimate for a configuration
//   esca_cli generate  out=<cloud.ply> [kind=shapenet|nyu] [index=0]
//       write a synthetic dataset sample (PLY) for use with the above
//
// The first positional argument is the subcommand; the rest are key=value.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/resource_model.hpp"
#include "core/zero_removing.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/sparse_conv.hpp"
#include "pointcloud/io.hpp"
#include "pointcloud/ply.hpp"
#include "runtime/engine.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): CLI main

sparse::SparseTensor load_tensor(const Config& args, int channels) {
  const std::string in = args.get_string("in", "");
  ESCA_REQUIRE(!in.empty(), "missing in=<cloud.{ply,xyz}>");
  pc::PointCloud cloud = pc::read_cloud_auto(in);
  cloud.normalize_unit_cube();
  const auto resolution = static_cast<std::int32_t>(args.get_int("resolution", 192));
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = resolution});
  sparse::SparseTensor geometry = sparse::SparseTensor::from_voxel_grid(grid, 1);
  if (channels == 1) return geometry;
  sparse::SparseTensor x = geometry.zeros_like(channels);
  Rng rng(7);
  for (float& v : x.raw_features()) v = rng.uniform_f(-1.0F, 1.0F);
  return x;
}

int cmd_stats(const Config& args) {
  const sparse::SparseTensor t = load_tensor(args, 1);
  const auto extent = t.spatial_extent();
  std::printf("sites: %zu of %lld (%.5f%% density)\n", t.size(),
              static_cast<long long>(extent.volume()),
              100.0 * static_cast<double>(t.size()) / static_cast<double>(extent.volume()));

  Table table("Tile statistics");
  table.header({"Tile", "Active", "All", "Removing ratio"});
  for (const int size : {4, 8, 12, 16}) {
    core::ZeroRemovingStats stats;
    (void)core::ZeroRemoving({size, size, size}).apply(t, &stats);
    table.row({str::format("%d^3", size), std::to_string(stats.active_tiles),
               str::with_commas(stats.total_tiles), str::percent(stats.removing_ratio, 2)});
  }
  table.print();
  return 0;
}

int cmd_run(const Config& args) {
  const int cin = static_cast<int>(args.get_int("cin", 1));
  const int cout = static_cast<int>(args.get_int("cout", 16));
  const int batch = static_cast<int>(args.get_int("batch", 1));
  const sparse::SparseTensor x = load_tensor(args, cin);

  Rng rng(11);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
  conv.init_kaiming(rng);

  runtime::RuntimeConfig rt_cfg;
  rt_cfg.backend = runtime::parse_backend_kind(args.get_string("backend", "esca"));
  runtime::Engine engine{rt_cfg};
  runtime::Session session = engine.open_session(engine.compile_layer(conv, x, {.name = "cli"}));
  // verify=true: every frame is checked bit-exactly against the integer
  // gold model (a mismatch throws).
  const runtime::RunReport report = session.submit(runtime::FrameBatch::replay(batch));

  for (const runtime::FrameReport& frame : report.frames) {
    const core::LayerRunStats& s = frame.stats.layers.front();
    std::printf(
        "%s [%s%s] sites %lld | tiles %lld | matches %lld | cycles %lld | %s | %.2f GOPS | "
        "bit-exact\n",
        frame.frame_id.c_str(), report.backend_name.c_str(),
        frame.weights_resident ? ", weights resident" : "",
        static_cast<long long>(s.sites),
        static_cast<long long>(s.zero_removing.active_tiles),
        static_cast<long long>(s.sdmu.matches), static_cast<long long>(s.total_cycles),
        units::seconds(s.total_seconds).c_str(), s.effective_gops);
  }
  if (batch > 1) {
    std::printf("batch total: %s, %.2f effective GOPS\n",
                units::seconds(report.total_seconds()).c_str(), report.effective_gops());
  }
  return 0;
}

int cmd_resources(const Config& args) {
  core::ArchConfig cfg;
  cfg.ic_parallel = static_cast<int>(args.get_int("ic", cfg.ic_parallel));
  cfg.oc_parallel = static_cast<int>(args.get_int("oc", cfg.oc_parallel));
  const core::ResourceReport r = core::ResourceModel(cfg).estimate();
  std::printf("%s: LUT %.0f (%s) | FF %.0f (%s) | BRAM %.1f (%s) | DSP %.0f (%s) | %s\n",
              r.device.name.c_str(), r.total_lut(), str::percent(r.lut_fraction(), 2).c_str(),
              r.total_ff(), str::percent(r.ff_fraction(), 2).c_str(), r.total_bram36(),
              str::percent(r.bram_fraction(), 2).c_str(), r.total_dsp(),
              str::percent(r.dsp_fraction(), 2).c_str(), r.fits() ? "fits" : "DOES NOT FIT");
  return 0;
}

int cmd_generate(const Config& args) {
  const std::string out = args.get_string("out", "");
  ESCA_REQUIRE(!out.empty(), "missing out=<cloud.ply>");
  const std::string kind = args.get_string("kind", "shapenet");
  const auto index = static_cast<std::size_t>(args.get_int("index", 0));

  pc::PointCloud cloud;
  if (kind == "shapenet") {
    cloud = datasets::ShapeNetLikeDataset({}, 20221014).sample(index);
  } else if (kind == "nyu") {
    cloud = datasets::NyuLikeDataset({}, 20221015).sample(index);
  } else {
    ESCA_REQUIRE(false, "kind must be 'shapenet' or 'nyu', got '" << kind << "'");
  }
  pc::write_ply_file(out, cloud, pc::PlyFormat::kBinaryLittleEndian);
  std::printf("wrote %zu points to %s (%s sample %zu)\n", cloud.size(), out.c_str(),
              kind.c_str(), index);
  return 0;
}

void usage() {
  std::printf(
      "usage: esca_cli <stats|run|resources|generate> [key=value ...]\n"
      "  stats     in=<cloud.{ply,xyz}> [resolution=192]\n"
      "  run       in=<cloud.{ply,xyz}> [cin=1] [cout=16] [resolution=192]\n"
      "            [backend=esca|cpu] [batch=1]\n"
      "  resources [ic=16] [oc=16]\n"
      "  generate  out=<cloud.ply> [kind=shapenet|nyu] [index=0]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Config args = Config::from_args(argc - 1, argv + 1);
    if (command == "stats") return cmd_stats(args);
    if (command == "run") return cmd_run(args);
    if (command == "resources") return cmd_resources(args);
    if (command == "generate") return cmd_generate(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
