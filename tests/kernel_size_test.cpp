// Kernel-size generality: the encoding/SDMU/CC stack must be correct for
// any odd K, not just the paper's 3 (extension; see
// bench_ablation_kernel_size).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/encoding.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

class KernelSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(KernelSizeProperty, SdmuMatchesEqualRulebook) {
  const int k = GetParam();
  Rng rng(300 + static_cast<std::uint64_t>(k));
  const auto t = test::clustered_tensor({24, 24, 24}, 1, rng, 7, 250);

  ArchConfig cfg;
  cfg.kernel_size = k;
  cfg.mask_read_cycles = k;
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const TileGrid grid = ZeroRemoving(cfg.tile_size).apply(geometry);
  const auto tiles = TileEncoder(cfg).encode(geometry, grid, nullptr);

  using M = std::tuple<std::int32_t, std::int16_t, std::int32_t>;
  std::set<M> produced;
  for (const Match& m : test::sdmu_stream(cfg, tiles)) {
    EXPECT_TRUE(produced.insert({m.in_row, m.weight_index, m.out_row}).second);
  }

  std::set<M> expected;
  const sparse::RuleBook rb = sparse::build_submanifold_geometry(geometry, k).rulebook;
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    for (const auto& r : rb.rules_for(o)) {
      expected.insert({r.in_row, static_cast<std::int16_t>(o), r.out_row});
    }
  }
  EXPECT_EQ(produced, expected);
}

TEST_P(KernelSizeProperty, AcceleratorBitExact) {
  const int k = GetParam();
  Rng rng(400 + static_cast<std::uint64_t>(k));
  const auto x = test::clustered_tensor({20, 20, 20}, 3, rng, 5, 120);

  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 3, 5, k);
  conv.init_kaiming(rng);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, k);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x, geometry);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  const auto layer =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "k");

  ArchConfig cfg;
  cfg.kernel_size = k;
  cfg.mask_read_cycles = k;
  Accelerator acc{cfg};
  const LayerRunStats st = acc.run_layer(layer, geometry);
  test::expect_closed_forms(st, geometry, cfg);
  // SRF scan is K cycles per position at minimum.
  EXPECT_GE(st.total_cycles, st.zero_removing.active_tiles * cfg.tile_size.volume() * k);
}

INSTANTIATE_TEST_SUITE_P(OddKernels, KernelSizeProperty, ::testing::Values(1, 3, 5));

TEST(KernelSizeTest, LargerKernelsFindMoreMatches) {
  Rng rng(501);
  const auto t = test::clustered_tensor({20, 20, 20}, 1, rng, 5, 200);
  std::int64_t previous = 0;
  for (const int k : {1, 3, 5}) {
    const std::int64_t rules = sparse::build_submanifold_geometry(t, k).total_rules();
    EXPECT_GT(rules, previous) << "k=" << k;
    previous = rules;
  }
}

TEST(KernelSizeTest, HaloRadiusFollowsKernel) {
  ArchConfig cfg;
  cfg.kernel_size = 5;
  cfg.mask_read_cycles = 5;
  EXPECT_EQ(cfg.kernel_radius(), 2);
  EXPECT_EQ(cfg.k2(), 25);
  const EncodedTile tile({0, 0, 0}, {8, 8, 8}, {8, 8, 8}, cfg.kernel_radius());
  EXPECT_EQ(tile.padded_size(), (Coord3{12, 12, 12}));
}

}  // namespace
}  // namespace esca::core
