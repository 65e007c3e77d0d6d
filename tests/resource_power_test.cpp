#include <gtest/gtest.h>

#include "core/power_model.hpp"
#include "core/resource_model.hpp"
#include "sim/energy.hpp"

namespace esca::core {
namespace {

TEST(ResourceModelTest, DefaultConfigDspIsExactly256) {
  // Structural: 16 x 16 MACs, one DSP48E2 each (paper Table II: 256 DSP).
  const ResourceModel model{ArchConfig{}};
  EXPECT_DOUBLE_EQ(model.estimate().total_dsp(), 256.0);
}

TEST(ResourceModelTest, DefaultConfigFitsZcu102) {
  const ResourceModel model{ArchConfig{}};
  const ResourceReport r = model.estimate();
  EXPECT_TRUE(r.fits());
  EXPECT_GT(r.total_lut(), 0.0);
  EXPECT_GT(r.total_ff(), 0.0);
  EXPECT_GT(r.total_bram36(), 0.0);
}

TEST(ResourceModelTest, NearPaperTableII) {
  // LUT/FF are calibrated first-order estimates: assert the same ballpark
  // (+-35 %), and that DSP is exact and BRAM within ~25 %.
  const ResourceModel model{ArchConfig{}};
  const ResourceReport r = model.estimate();
  EXPECT_NEAR(r.total_lut(), 17614.0, 17614.0 * 0.35);
  EXPECT_NEAR(r.total_ff(), 12142.0, 12142.0 * 0.35);
  EXPECT_NEAR(r.total_bram36(), 365.5, 365.5 * 0.25);
  EXPECT_DOUBLE_EQ(r.total_dsp(), 256.0);
}

TEST(ResourceModelTest, DspScalesWithParallelism) {
  ArchConfig small;
  small.ic_parallel = 8;
  small.oc_parallel = 8;
  ArchConfig big;
  big.ic_parallel = 32;
  big.oc_parallel = 32;
  EXPECT_DOUBLE_EQ(ResourceModel{small}.estimate().total_dsp(), 64.0);
  EXPECT_DOUBLE_EQ(ResourceModel{big}.estimate().total_dsp(), 1024.0);
  EXPECT_LT(ResourceModel{small}.estimate().total_lut(),
            ResourceModel{big}.estimate().total_lut());
}

TEST(ResourceModelTest, BramScalesWithBufferSizes) {
  ArchConfig small;
  small.activation_buffer_bytes = 64 * 1024;
  small.weight_buffer_bytes = 128 * 1024;
  small.output_buffer_bytes = 64 * 1024;
  ArchConfig big;
  big.activation_buffer_bytes = 512 * 1024;
  big.weight_buffer_bytes = 1024 * 1024;
  big.output_buffer_bytes = 512 * 1024;
  EXPECT_LT(ResourceModel{small}.estimate().total_bram36(),
            ResourceModel{big}.estimate().total_bram36());
}

TEST(ResourceModelTest, FractionsAgainstDevice) {
  const ResourceModel model{ArchConfig{}};
  const ResourceReport r = model.estimate();
  EXPECT_NEAR(r.dsp_fraction(), 256.0 / 2520.0, 1e-9);
  EXPECT_GT(r.bram_fraction(), 0.0);
  EXPECT_LT(r.bram_fraction(), 1.0);
}

TEST(ResourceModelTest, ModulesAreItemized) {
  const ResourceReport r = ResourceModel{ArchConfig{}}.estimate();
  ASSERT_GE(r.modules.size(), 4U);
  bool found_cc = false;
  bool found_sdmu = false;
  for (const auto& m : r.modules) {
    if (m.name.find("computing") != std::string::npos) found_cc = true;
    if (m.name.find("SDMU") != std::string::npos) found_sdmu = true;
  }
  EXPECT_TRUE(found_cc);
  EXPECT_TRUE(found_sdmu);
}

TEST(PowerModelTest, TotalIsSumOfComponents) {
  const PowerModel model{ArchConfig{}};
  sim::EnergyMeter meter;
  meter.add_mac(1'000'000);
  meter.add_bram_read(100'000);
  meter.add_dram_bytes(1 << 20);
  meter.add_logic_cycles(500'000);
  const PowerReport r = model.estimate(meter, 0.01, 365.5);
  EXPECT_GT(r.static_w, 0.0);
  EXPECT_GT(r.clock_w, 0.0);
  EXPECT_GT(r.compute_w, 0.0);
  EXPECT_GT(r.memory_w, 0.0);
  EXPECT_NEAR(r.total_w, r.static_w + r.clock_w + r.compute_w + r.memory_w, 1e-9);
}

TEST(PowerModelTest, InPaperBallparkAtRepresentativeLoad) {
  // At a plausible operating point (~12 % array utilization at 270 MHz) the
  // model should land in single-digit watts, near the paper's 3.45 W.
  const ArchConfig cfg;
  const PowerModel model{cfg};
  sim::EnergyMeter meter;
  const double seconds = 0.01;
  const double cycles = cfg.frequency_hz * seconds;
  const auto macs = static_cast<std::int64_t>(cycles * 256.0 * 0.12);
  meter.add_mac(macs);
  meter.add_bram_read(static_cast<std::int64_t>(cycles * 2));
  meter.add_bram_write(static_cast<std::int64_t>(cycles / 4));
  meter.add_logic_cycles(static_cast<std::int64_t>(cycles));
  meter.add_dram_bytes(static_cast<std::int64_t>(0.5e9 * seconds));
  const PowerReport r = model.estimate(meter, seconds, 365.5);
  EXPECT_GT(r.total_w, 1.5);
  EXPECT_LT(r.total_w, 7.0);
}

TEST(PowerModelTest, ScalesWithFrequencyAndActivity) {
  ArchConfig slow;
  slow.frequency_hz = 100e6;
  ArchConfig fast;
  fast.frequency_hz = 300e6;
  sim::EnergyMeter meter;
  meter.add_mac(1'000'000);
  const double s = 0.01;
  EXPECT_LT(PowerModel{slow}.estimate(meter, s, 100).total_w,
            PowerModel{fast}.estimate(meter, s, 100).total_w);

  sim::EnergyMeter busier;
  busier.add_mac(10'000'000);
  EXPECT_LT(PowerModel{fast}.estimate(meter, s, 100).total_w,
            PowerModel{fast}.estimate(busier, s, 100).total_w);
}

TEST(PowerModelTest, RejectsNonPositiveTime) {
  const PowerModel model{ArchConfig{}};
  sim::EnergyMeter meter;
  EXPECT_THROW((void)model.estimate(meter, 0.0, 0.0), InvalidArgument);
}

TEST(ArchConfigTest, ValidateCatchesBadParameters) {
  ArchConfig cfg;
  cfg.kernel_size = 4;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = {};
  cfg.ic_parallel = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = {};
  cfg.tile_size = {0, 8, 8};
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.k2(), 9);
  EXPECT_EQ(cfg.k3(), 27);
  EXPECT_EQ(cfg.kernel_radius(), 1);
  EXPECT_EQ(cfg.compute_parallelism(), 256);
}

TEST(ArchConfigTest, CyclesPerMatchBlocks) {
  const ArchConfig cfg;  // 16 x 16
  EXPECT_EQ(cfg.cycles_per_match(16, 16), 1);
  EXPECT_EQ(cfg.cycles_per_match(1, 16), 1);
  EXPECT_EQ(cfg.cycles_per_match(17, 16), 2);
  EXPECT_EQ(cfg.cycles_per_match(32, 32), 4);
  EXPECT_EQ(cfg.cycles_per_match(48, 16), 3);
  EXPECT_THROW((void)cfg.cycles_per_match(0, 16), InvalidArgument);
}

}  // namespace
}  // namespace esca::core
