// Analytic performance model tests (the fast DSE path).
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/perf_model.hpp"

namespace esca::core {
namespace {

TEST(PerfModelTest, ScanBoundWhenMatchesAreFew) {
  const PerfModel model{ArchConfig{}};
  // 40 tiles, almost no matches: scan dominates.
  const PerfEstimate e = model.estimate_layer(40, 100, 16, 16);
  EXPECT_TRUE(e.scan_bound);
  EXPECT_EQ(e.scan_cycles, 40LL * 512 * 3);
  EXPECT_EQ(e.drain_cycles, 100);
  EXPECT_EQ(e.total_cycles, e.scan_cycles + 40 * ArchConfig{}.pipeline_fill_cycles);
}

TEST(PerfModelTest, DrainBoundWhenChannelsAreWide) {
  const PerfModel model{ArchConfig{}};
  // 64-channel layers: 4x4 = 16 cycles per match.
  const PerfEstimate e = model.estimate_layer(10, 50'000, 64, 64);
  EXPECT_FALSE(e.scan_bound);
  EXPECT_EQ(e.drain_cycles, 50'000LL * 16);
  EXPECT_GT(e.effective_gops, 0.0);
}

TEST(PerfModelTest, GopsAccountsEffectiveOpsOnly) {
  const PerfModel model{ArchConfig{}};
  const PerfEstimate e = model.estimate_layer(10, 10'000, 16, 16);
  const double macs = 10'000.0 * 16 * 16;
  EXPECT_NEAR(e.effective_gops, 2.0 * macs / e.seconds / 1e9, 1e-6);
}

TEST(PerfModelTest, SecondsFollowFrequency) {
  ArchConfig slow;
  slow.frequency_hz = 100e6;
  ArchConfig fast;
  fast.frequency_hz = 400e6;
  const auto es = PerfModel{slow}.estimate_layer(10, 10'000, 16, 16);
  const auto ef = PerfModel{fast}.estimate_layer(10, 10'000, 16, 16);
  EXPECT_EQ(es.total_cycles, ef.total_cycles);
  EXPECT_NEAR(es.seconds / ef.seconds, 4.0, 1e-9);
}

TEST(PerfModelTest, TileSizeMovesTheScanBoundCrossover) {
  ArchConfig small_tiles;
  small_tiles.tile_size = {4, 4, 4};
  ArchConfig big_tiles;
  big_tiles.tile_size = {16, 16, 16};
  // Same workload: the big-tile config scans 64x the voxels per tile.
  const auto es = PerfModel{small_tiles}.estimate_layer(10, 20'000, 16, 16);
  const auto eb = PerfModel{big_tiles}.estimate_layer(10, 20'000, 16, 16);
  EXPECT_LT(es.scan_cycles, eb.scan_cycles);
}

TEST(PerfModelTest, RejectsBadInputs) {
  const PerfModel model{ArchConfig{}};
  EXPECT_THROW((void)model.estimate_layer(-1, 10, 16, 16), InvalidArgument);
  EXPECT_THROW((void)model.estimate_layer(1, -10, 16, 16), InvalidArgument);
  EXPECT_THROW((void)model.estimate_layer(1, 10, 0, 16), InvalidArgument);
}

TEST(PerfModelTest, EmptyLayerHasZeroCycles) {
  const PerfModel model{ArchConfig{}};
  const PerfEstimate e = model.estimate_layer(0, 0, 16, 16);
  EXPECT_EQ(e.total_cycles, 0);
  EXPECT_DOUBLE_EQ(e.effective_gops, 0.0);
}

}  // namespace
}  // namespace esca::core
