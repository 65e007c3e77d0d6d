// Parameterized property sweeps across densities, tile sizes and channel
// geometries: the invariants that make the accelerator trustworthy.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/accelerator.hpp"
#include "core/encoding.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca {
namespace {

// ---------------------------------------------------------------------------
// Property: SDMU matching == rulebook, for every (density, tile size) combo.
// ---------------------------------------------------------------------------

using MatchParams = std::tuple<double /*density*/, int /*tile*/>;

class SdmuRulebookProperty : public ::testing::TestWithParam<MatchParams> {};

TEST_P(SdmuRulebookProperty, MatchesEqualRulebook) {
  const auto [density, tile] = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(tile * 1000) +
          static_cast<std::uint64_t>(density * 1e4));
  const auto t = test::random_sparse_tensor({20, 20, 20}, 1, density, rng, 1500);

  core::ArchConfig cfg;
  cfg.tile_size = {tile, tile, tile};
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const core::ZeroRemoving zr(cfg.tile_size);
  const core::TileGrid grid = zr.apply(geometry);
  const core::TileEncoder encoder(cfg);
  const auto tiles = encoder.encode(geometry, grid, nullptr);

  using M = std::tuple<std::int32_t, std::int16_t, std::int32_t>;
  std::set<M> produced;
  for (const core::Match& m : test::sdmu_stream(cfg, tiles)) {
    EXPECT_TRUE(produced.insert({m.in_row, m.weight_index, m.out_row}).second)
        << "duplicate match emitted";
  }

  std::set<M> expected;
  const sparse::RuleBook rb =
      sparse::build_submanifold_geometry(geometry, cfg.kernel_size).rulebook;
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    for (const auto& r : rb.rules_for(o)) {
      expected.insert({r.in_row, static_cast<std::int16_t>(o), r.out_row});
    }
  }
  EXPECT_EQ(produced, expected);
}

std::string match_param_name(const ::testing::TestParamInfo<MatchParams>& info) {
  const double d = std::get<0>(info.param);
  const int t = std::get<1>(info.param);
  return str::format("d%d_t%d", static_cast<int>(d * 1000), t);
}

INSTANTIATE_TEST_SUITE_P(DensityTileSweep, SdmuRulebookProperty,
                         ::testing::Combine(::testing::Values(0.002, 0.01, 0.05, 0.15),
                                            ::testing::Values(4, 5, 8, 10)),
                         match_param_name);

// ---------------------------------------------------------------------------
// Property: zero removing is lossless for any tile size.
// ---------------------------------------------------------------------------

class ZeroRemovingProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZeroRemovingProperty, SiteSetPreserved) {
  const int tile = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(tile));
  const auto t = test::random_sparse_tensor({30, 30, 30}, 1, 0.01, rng);
  const core::ZeroRemoving zr({tile, tile, tile});
  const core::TileGrid grid = zr.apply(t);
  // Every site's tile survives, and every surviving tile holds a site.
  std::set<Coord3> site_tiles;
  for (const Coord3& c : t.coords()) {
    const Coord3 tl{c.x / tile, c.y / tile, c.z / tile};
    EXPECT_GE(grid.find_tile(tl), 0) << "site " << c;
    site_tiles.insert(tl);
  }
  EXPECT_EQ(static_cast<std::int64_t>(site_tiles.size()), grid.active_tiles());
}

INSTANTIATE_TEST_SUITE_P(TileSizes, ZeroRemovingProperty, ::testing::Values(2, 3, 4, 6, 8, 15));

// ---------------------------------------------------------------------------
// Property: the accelerator matches every rule once and drains it in the
// closed-form cycles and MACs for every channel geometry (including
// non-multiples of the array size).
// ---------------------------------------------------------------------------

using ChannelParams = std::tuple<int /*cin*/, int /*cout*/>;

class AcceleratorBitExactProperty : public ::testing::TestWithParam<ChannelParams> {};

TEST_P(AcceleratorBitExactProperty, OutputEqualsGold) {
  const auto [cin, cout] = GetParam();
  Rng rng(3000 + static_cast<std::uint64_t>(cin * 100 + cout));
  const auto x = test::clustered_tensor({20, 20, 20}, cin, rng, 5, 150);

  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
  conv.init_kaiming(rng);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x, geometry);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  const auto layer =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "p");

  const core::ArchConfig cfg;
  core::Accelerator acc{cfg};
  test::expect_closed_forms(acc.run_layer(layer, geometry), geometry, cfg);
}

std::string channel_param_name(const ::testing::TestParamInfo<ChannelParams>& info) {
  return "cin" + std::to_string(std::get<0>(info.param)) + "_cout" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(ChannelGeometries, AcceleratorBitExactProperty,
                         ::testing::Values(ChannelParams{1, 16}, ChannelParams{16, 16},
                                           ChannelParams{3, 7}, ChannelParams{17, 5},
                                           ChannelParams{16, 32}, ChannelParams{33, 17}),
                         channel_param_name);

// ---------------------------------------------------------------------------
// Property: encoding stores each core site exactly once for any tile size.
// ---------------------------------------------------------------------------

class EncodingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EncodingProperty, CoreSitesPartitionTheTensor) {
  const int tile = GetParam();
  Rng rng(4000 + static_cast<std::uint64_t>(tile));
  const auto t = test::random_sparse_tensor({24, 24, 24}, 1, 0.02, rng);
  core::ArchConfig cfg;
  cfg.tile_size = {tile, tile, tile};
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const core::TileGrid grid = core::ZeroRemoving(cfg.tile_size).apply(geometry);
  core::EncodingStats stats;
  const auto tiles = core::TileEncoder(cfg).encode(geometry, grid, &stats);
  EXPECT_EQ(stats.core_sites, static_cast<std::int64_t>(t.size()));
  EXPECT_GE(stats.stored_sites, stats.core_sites);
  EXPECT_EQ(stats.halo_duplicates, stats.stored_sites - stats.core_sites);
  EXPECT_EQ(stats.tiles, grid.active_tiles());
}

INSTANTIATE_TEST_SUITE_P(TileSizes, EncodingProperty, ::testing::Values(3, 4, 6, 8, 12));

// ---------------------------------------------------------------------------
// Property: SDMU cycle counts respect analytic lower bounds across CC rates.
// ---------------------------------------------------------------------------

class SdmuTimingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SdmuTimingProperty, CyclesAtLeastScanAndDrainBounds) {
  const int ccpm = GetParam();
  Rng rng(5000 + static_cast<std::uint64_t>(ccpm));
  const auto t = test::clustered_tensor({16, 16, 16}, 1, rng, 5, 150);
  core::ArchConfig cfg;
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const core::TileGrid grid = core::ZeroRemoving(cfg.tile_size).apply(geometry);
  const auto tiles = core::TileEncoder(cfg).encode(geometry, grid, nullptr);
  core::Sdmu sdmu(cfg);
  for (const auto& tile : tiles) {
    const core::SdmuStats r = sdmu.simulate_tile(tile, ccpm);
    EXPECT_GE(r.cycles, tile.core_size().volume() * cfg.mask_read_cycles);
    EXPECT_GE(r.cycles, r.matches * ccpm);
  }
}

INSTANTIATE_TEST_SUITE_P(CcRates, SdmuTimingProperty, ::testing::Values(1, 2, 4, 9));

}  // namespace
}  // namespace esca
