// Coverage sweep over smaller behaviours not exercised elsewhere: logging
// levels, DRAM overlap accounting, report on empty stats, dataset category
// cycling, geometry utilities and deeper network smoke tests.
#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/accelerator.hpp"
#include "core/report.hpp"
#include "datasets/shapenet_like.hpp"
#include "geometry/primitives.hpp"
#include "geometry/transforms.hpp"
#include "nn/sparse_conv.hpp"
#include "nn/unet.hpp"
#include "quant/qconv.hpp"
#include "test_util.hpp"

namespace esca {
namespace {

TEST(LoggingTest, LevelThresholdRoundTrip) {
  const log::Level before = log::level();
  log::set_level(log::Level::kError);
  EXPECT_EQ(log::level(), log::Level::kError);
  // Below-threshold writes are dropped (no observable crash/output path).
  ESCA_LOG_DEBUG << "suppressed " << 42;
  ESCA_LOG_ERROR << "emitted";
  log::set_level(before);
}

TEST(LoggingTest, LevelsAreOrdered) {
  EXPECT_LT(log::Level::kDebug, log::Level::kInfo);
  EXPECT_LT(log::Level::kInfo, log::Level::kWarn);
  EXPECT_LT(log::Level::kWarn, log::Level::kError);
  EXPECT_LT(log::Level::kError, log::Level::kOff);
}

TEST(UnitsTest, SubKiloRates) {
  EXPECT_EQ(units::ops_per_second(12.0), "12.00 OPS");
  EXPECT_EQ(units::ops_per_second(1.2e4), "12.00 KOPS");
  EXPECT_EQ(units::ops_per_second(1.2e7), "12.00 MOPS");
  EXPECT_EQ(units::frequency(50.0), "50.0 Hz");
  EXPECT_EQ(units::seconds(2.5e-8), "25.0 ns");
}

TEST(OverlapDramTest, OverlapNeverSlowerThanSerial) {
  Rng rng(901);
  const auto x = test::clustered_tensor({24, 24, 24}, 8, rng, 6, 250);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 8, 8, 3);
  conv.init_kaiming(rng);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x, geometry);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  const auto layer =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "ov");

  core::ArchConfig serial;
  serial.overlap_dram = false;
  core::ArchConfig overlapped = serial;
  overlapped.overlap_dram = true;
  core::Accelerator a{serial};
  core::Accelerator b{overlapped};
  const core::LayerRunStats ra = a.run_layer(layer, geometry);
  const core::LayerRunStats rb = b.run_layer(layer, geometry);
  test::expect_closed_forms(ra, geometry, serial);
  test::expect_closed_forms(rb, geometry, overlapped);
  EXPECT_LE(rb.total_seconds, ra.total_seconds);
  // Serial = compute + dram exactly; overlap = max of the two.
  EXPECT_NEAR(ra.total_seconds, ra.compute_seconds + ra.dram_seconds, 1e-12);
  EXPECT_NEAR(rb.total_seconds, std::max(rb.compute_seconds, rb.dram_seconds), 1e-12);
}

TEST(ReportTest, EmptyStatsRenderGracefully) {
  const core::NetworkRunStats empty;
  const std::string table = core::layer_report_table(empty, "empty");
  EXPECT_NE(table.find("total"), std::string::npos);
  std::ostringstream os;
  core::write_layer_csv(os, empty);
  EXPECT_NE(os.str().find("layer,cin"), std::string::npos);
}

TEST(ShapeNetLikeTest, CategoryCyclesThroughAllSeven) {
  const datasets::ShapeNetLikeDataset ds({}, 1);
  for (std::size_t i = 0; i < 2 * datasets::kNumShapeCategories; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(ds.category_of(i)),
              i % datasets::kNumShapeCategories);
  }
}

TEST(GeometryTest, MeshAppendAndPointTranslate) {
  geom::Mesh a = geom::make_box({0, 0, 0}, {1, 1, 1});
  const std::size_t n = a.size();
  a.append(geom::make_box({5, 5, 5}, {1, 1, 1}));
  EXPECT_EQ(a.size(), 2 * n);

  std::vector<geom::Vec3> pts{{0, 0, 0}, {1, 1, 1}};
  geom::translate_points(pts, {1, 2, 3});
  EXPECT_EQ(pts[0], (geom::Vec3{1, 2, 3}));
  EXPECT_EQ(pts[1], (geom::Vec3{2, 3, 4}));
}

TEST(SSUNetTest, DeeperNetworkSmoke) {
  Rng rng(902);
  const auto x = test::clustered_tensor({32, 32, 32}, 1, rng, 9, 400);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 4;  // deeper than the bench default
  cfg.reps_per_level = 1;
  cfg.num_classes = 3;
  const nn::SSUNet net(cfg, 99);
  const auto logits = net.forward(x);
  EXPECT_EQ(logits.size(), x.size());
  EXPECT_EQ(logits.channels(), 3);
  EXPECT_GT(net.total_macs(x), 0);
}

TEST(RunningStatTest, SingleSampleEdge) {
  RunningStat s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(EmptyStatTest, ZeroSamples) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

}  // namespace
}  // namespace esca
