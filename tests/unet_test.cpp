#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/unet.hpp"
#include "test_util.hpp"

namespace esca::nn {
namespace {

SSUNetConfig small_config() {
  SSUNetConfig cfg;
  cfg.in_channels = 1;
  cfg.base_planes = 4;
  cfg.levels = 3;
  cfg.reps_per_level = 1;
  cfg.num_classes = 5;
  return cfg;
}

TEST(SSUNetTest, OutputIsPerSiteLogits) {
  Rng rng(61);
  const auto x = test::random_sparse_tensor({16, 16, 16}, 1, 0.04, rng);
  const SSUNet net(small_config(), 7);
  const auto logits = net.forward(x);
  EXPECT_EQ(logits.size(), x.size());
  EXPECT_EQ(logits.channels(), 5);
  // Submanifold property: coordinates preserved end to end.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(logits.find(x.coord(i)), 0);
  }
}

TEST(SSUNetTest, DeterministicGivenSeed) {
  Rng rng(62);
  const auto x = test::random_sparse_tensor({12, 12, 12}, 1, 0.05, rng);
  const SSUNet a(small_config(), 99);
  const SSUNet b(small_config(), 99);
  EXPECT_LT(sparse::max_abs_diff(a.forward(x), b.forward(x)), 1e-6F);
  const SSUNet c(small_config(), 100);
  EXPECT_GT(sparse::max_abs_diff(a.forward(x), c.forward(x)), 0.0F);
}

TEST(SSUNetTest, TraceCoversAllLayers) {
  Rng rng(63);
  const auto x = test::random_sparse_tensor({16, 16, 16}, 1, 0.04, rng);
  const SSUNetConfig cfg = small_config();
  const SSUNet net(cfg, 7);
  std::vector<TraceEntry> trace;
  (void)net.forward(x, &trace);

  // stem + levels*reps encoder + (levels-1) down + (levels-1) up +
  // (levels-1)*reps decoder + head.
  const int expected = 1 + cfg.levels * cfg.reps_per_level + (cfg.levels - 1) * 2 +
                       (cfg.levels - 1) * cfg.reps_per_level + 1;
  EXPECT_EQ(static_cast<int>(trace.size()), expected);
  EXPECT_EQ(trace.front().name, "stem");
  EXPECT_EQ(trace.back().conv, nullptr);  // the linear head

  // Sub-Conv entries carry conv/BN pointers and fold ReLU.
  for (const auto idx : subconv_entries(trace)) {
    const TraceEntry& e = trace[idx];
    EXPECT_EQ(e.conv->kind(), sparse::GeometryKind::kSubmanifold) << e.name;
    EXPECT_NE(e.bn, nullptr) << e.name;
    EXPECT_TRUE(e.relu) << e.name;
    EXPECT_GT(e.macs, 0) << e.name;
    EXPECT_EQ(e.output.size(), e.input.size()) << e.name;
  }
}

TEST(SSUNetTest, TraceOutputsAreNonNegativeAfterRelu) {
  Rng rng(64);
  const auto x = test::random_sparse_tensor({12, 12, 12}, 1, 0.06, rng);
  const SSUNet net(small_config(), 3);
  std::vector<TraceEntry> trace;
  (void)net.forward(x, &trace);
  for (const auto idx : subconv_entries(trace)) {
    for (const float v : trace[idx].output.raw_features()) {
      EXPECT_GE(v, 0.0F);
    }
  }
}

TEST(SSUNetTest, DecoderFirstBlockConsumesConcat) {
  const SSUNetConfig cfg = small_config();
  const SSUNet net(cfg, 7);
  Rng rng(65);
  const auto x = test::random_sparse_tensor({16, 16, 16}, 1, 0.05, rng);
  std::vector<TraceEntry> trace;
  (void)net.forward(x, &trace);
  bool found = false;
  for (const auto& e : trace) {
    if (e.name == "dec1.block0") {
      found = true;
      // Level 1 planes = 8; concat doubles to 16.
      EXPECT_EQ(e.in_channels, 2 * net.planes_at(1));
      EXPECT_EQ(e.out_channels, net.planes_at(1));
    }
  }
  EXPECT_TRUE(found);
}

TEST(SSUNetTest, TotalMacsMatchesTraceSum) {
  Rng rng(66);
  const auto x = test::random_sparse_tensor({12, 12, 12}, 1, 0.05, rng);
  const SSUNet net(small_config(), 7);
  std::vector<TraceEntry> trace;
  (void)net.forward(x, &trace);
  std::int64_t sum = 0;
  for (const auto& e : trace) sum += e.macs;
  EXPECT_EQ(net.total_macs(x), sum);
  EXPECT_GT(sum, 0);
}

TEST(SSUNetTest, ParameterCountPositiveAndScales) {
  const SSUNet small(small_config(), 1);
  SSUNetConfig big_cfg = small_config();
  big_cfg.base_planes = 8;
  const SSUNet big(big_cfg, 1);
  EXPECT_GT(small.parameter_count(), 0);
  EXPECT_GT(big.parameter_count(), small.parameter_count());
}

TEST(SSUNetTest, PlanesFollowSscnConvention) {
  const SSUNet net(small_config(), 1);
  EXPECT_EQ(net.planes_at(0), 4);
  EXPECT_EQ(net.planes_at(1), 8);
  EXPECT_EQ(net.planes_at(2), 12);
}

TEST(SSUNetTest, RejectsBadConfigAndInput) {
  SSUNetConfig cfg = small_config();
  cfg.levels = 0;
  EXPECT_THROW(SSUNet(cfg, 1), InvalidArgument);
  cfg = small_config();
  cfg.kernel_size = 2;
  EXPECT_THROW(SSUNet(cfg, 1), InvalidArgument);

  const SSUNet net(small_config(), 1);
  Rng rng(67);
  const auto x2 = test::random_sparse_tensor({8, 8, 8}, 2, 0.1, rng);
  EXPECT_THROW((void)net.forward(x2), InvalidArgument);
}

TEST(SSUNetTest, SingleLevelNetworkHasNoDownUp) {
  SSUNetConfig cfg = small_config();
  cfg.levels = 1;
  const SSUNet net(cfg, 5);
  Rng rng(68);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 1, 0.1, rng);
  std::vector<TraceEntry> trace;
  const auto y = net.forward(x, &trace);
  EXPECT_EQ(y.size(), x.size());
  for (const auto& e : trace) {
    if (e.conv == nullptr) continue;
    EXPECT_EQ(e.conv->kind(), sparse::GeometryKind::kSubmanifold) << e.name;
  }
}

}  // namespace
}  // namespace esca::nn
