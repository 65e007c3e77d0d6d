#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/bram.hpp"
#include "sim/dram.hpp"
#include "sim/energy.hpp"
#include "sim/fifo.hpp"

namespace esca::sim {
namespace {

TEST(FifoTest, PushPopOrder) {
  Fifo<int> f(4);
  EXPECT_TRUE(f.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(f.try_push(i));
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.try_push(99));
  for (int i = 0; i < 4; ++i) {
    const auto v = f.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(f.try_pop().has_value());
}

TEST(FifoTest, StatsTrackStallsAndHighWater) {
  Fifo<int> f(2);
  f.push(1);
  f.push(2);
  EXPECT_FALSE(f.try_push(3));
  EXPECT_EQ(f.push_stalls(), 1);
  EXPECT_EQ(f.high_water(), 2U);
  EXPECT_EQ(f.total_pushed(), 2);
  (void)f.try_pop();
  (void)f.try_pop();
  (void)f.try_pop();
  EXPECT_EQ(f.pop_stalls(), 1);
}

TEST(FifoTest, PushOnFullFifoThrowsViaCheckedApi) {
  Fifo<int> f(1);
  f.push(1);
  EXPECT_THROW(f.push(2), InternalError);
}

TEST(FifoTest, RejectsZeroCapacity) { EXPECT_THROW(Fifo<int>(0), InvalidArgument); }

TEST(BramTest, Bram36CountNaturalAspects) {
  // 512 x 72b fits exactly one BRAM36.
  EXPECT_DOUBLE_EQ(bram36_count({"a", 72, 512, 1}), 1.0);
  // 1024 x 36b also fits one.
  EXPECT_DOUBLE_EQ(bram36_count({"b", 36, 1024, 1}), 1.0);
  // Small buffers map to a half (BRAM18).
  EXPECT_DOUBLE_EQ(bram36_count({"c", 16, 512, 1}), 0.5);
  // Wide x deep tiles multiply.
  EXPECT_DOUBLE_EQ(bram36_count({"d", 144, 1024, 1}), 4.0);
}

TEST(BramTest, RejectsDegenerateSpecs) {
  EXPECT_THROW(bram36_count({"x", 0, 16, 1}), InvalidArgument);
  EXPECT_THROW(bram36_count({"x", 8, 0, 1}), InvalidArgument);
}

TEST(DramTest, EffectiveBandwidthDerated) {
  DramModel dram(DramConfig{100e9, 0.5, 0.0});
  EXPECT_DOUBLE_EQ(dram.effective_bandwidth(), 50e9);
}

TEST(DramTest, RejectsBadConfig) {
  EXPECT_THROW(DramModel(DramConfig{0.0, 0.5, 0.0}), InvalidArgument);
  EXPECT_THROW(DramModel(DramConfig{1e9, 1.5, 0.0}), InvalidArgument);
}

TEST(EnergyTest, AccumulatesComponents) {
  EnergyMeter m;
  m.add_mac(1000);
  m.add_bram_read(10);
  m.add_dram_bytes(1 << 10);
  EXPECT_GT(m.component_joules("dsp_mac"), 0.0);
  EXPECT_GT(m.component_joules("dram"), 0.0);
  EXPECT_DOUBLE_EQ(m.component_joules("bram_write"), 0.0);
  EXPECT_NEAR(m.total_joules(),
              m.component_joules("dsp_mac") + m.component_joules("bram_read") +
                  m.component_joules("dram"),
              1e-18);
  m.clear();
  EXPECT_DOUBLE_EQ(m.total_joules(), 0.0);
}

TEST(EnergyTest, MacEnergyMatchesTable) {
  EnergyTable table;
  EnergyMeter m(table);
  m.add_mac(1'000'000);
  EXPECT_NEAR(m.component_joules("dsp_mac"), 1e6 * table.dsp_mac_j, 1e-15);
}

}  // namespace
}  // namespace esca::sim
