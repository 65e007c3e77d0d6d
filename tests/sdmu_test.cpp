#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <tuple>

#include "common/rng.hpp"
#include "core/encoding.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Prepared {
  sparse::SparseTensor geometry;
  std::vector<EncodedTile> tiles;
};

Prepared prepare(const sparse::SparseTensor& t, const ArchConfig& cfg) {
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const ZeroRemoving zr(cfg.tile_size);
  const TileGrid grid = zr.apply(geometry);
  const TileEncoder encoder(cfg);
  auto tiles = encoder.encode(geometry, grid, nullptr);
  return {std::move(geometry), std::move(tiles)};
}

using MatchTuple = std::tuple<std::int32_t, std::int16_t, std::int32_t>;  // in, w, out

std::set<MatchTuple> all_matches(std::span<const Match> stream) {
  std::set<MatchTuple> s;
  for (const Match& m : stream) {
    const auto [it, inserted] = s.insert({m.in_row, m.weight_index, m.out_row});
    EXPECT_TRUE(inserted) << "duplicate match";
  }
  return s;
}

std::set<MatchTuple> rulebook_matches(const sparse::SparseTensor& geometry, int k) {
  std::set<MatchTuple> s;
  const sparse::RuleBook rb = sparse::build_submanifold_geometry(geometry, k).rulebook;
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    for (const sparse::Rule& r : rb.rules_for(o)) {
      s.insert({r.in_row, static_cast<std::int16_t>(o), r.out_row});
    }
  }
  return s;
}

TEST(SdmuMatchTest, GroupsEqualRulebookProperty) {
  Rng rng(121);
  ArchConfig cfg;
  for (int trial = 0; trial < 6; ++trial) {
    const auto t = test::random_sparse_tensor({24, 24, 24}, 1, 0.01 + 0.01 * trial, rng, 800);
    const Prepared p = prepare(t, cfg);
    const std::vector<Match> stream = test::sdmu_stream(cfg, p.tiles);
    EXPECT_EQ(all_matches(stream), rulebook_matches(p.geometry, cfg.kernel_size))
        << "trial " << trial;
    // One group per site.
    EXPECT_EQ(test::group_count(stream), static_cast<std::int64_t>(t.size()))
        << "trial " << trial;
  }
}

TEST(SdmuMatchTest, GroupsEqualRulebookAcrossTileBoundaries) {
  // Sites straddling tile borders exercise the halo path.
  sparse::SparseTensor t({32, 32, 32}, 1);
  for (int i = 6; i <= 9; ++i) t.add_site({i, 8, 8});   // crosses x=8 boundary
  for (int i = 6; i <= 9; ++i) t.add_site({8, i, 16});  // crosses z=16? (tile y)
  t.sort_canonical();
  ArchConfig cfg;
  const Prepared p = prepare(t, cfg);
  EXPECT_EQ(all_matches(test::sdmu_stream(cfg, p.tiles)), rulebook_matches(p.geometry, 3));
}

TEST(SdmuSimulateTest, StatsAreCoherent) {
  Rng rng(123);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({16, 16, 16}, 1, rng, 5, 150);
  const Prepared p = prepare(t, cfg);
  Sdmu sdmu(cfg);

  for (const EncodedTile& tile : p.tiles) {
    const SdmuStats r = sdmu.simulate_tile(tile, 1);
    EXPECT_EQ(r.srf_total, tile.core_size().volume());
    EXPECT_EQ(r.srf_active + r.srf_skipped, r.srf_total);
    EXPECT_EQ(r.srf_active, tile.core_active_count());
    const auto matches = static_cast<std::int64_t>(sdmu.matches().size());
    EXPECT_EQ(r.matches, matches);
    // Scan alone needs srf_total * mask_read_cycles cycles.
    EXPECT_GE(r.cycles, r.srf_total * cfg.mask_read_cycles);
    // Drain alone needs at least one cycle per match.
    EXPECT_GE(r.cycles, matches);
    EXPECT_LE(r.fifo_high_water, static_cast<std::size_t>(cfg.fifo_depth));
  }
}

TEST(SdmuSimulateTest, SlowerCcIncreasesCycles) {
  Rng rng(124);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({16, 16, 16}, 1, rng, 4, 120);
  const Prepared p = prepare(t, cfg);
  Sdmu sdmu(cfg);
  ASSERT_FALSE(p.tiles.empty());
  const EncodedTile& tile = p.tiles.front();
  const SdmuStats fast = sdmu.simulate_tile(tile, 1);
  const SdmuStats slow = sdmu.simulate_tile(tile, 4);
  EXPECT_GE(slow.cycles, fast.cycles);
  // With ccpm=4 the drain takes at least 4 cycles per match.
  EXPECT_GE(slow.cycles, slow.matches * 4);
}

TEST(SdmuSimulateTest, ShallowFifoStillCorrectJustSlower) {
  Rng rng(125);
  ArchConfig deep;
  ArchConfig shallow = deep;
  shallow.fifo_depth = 2;
  const auto t = test::clustered_tensor({16, 16, 16}, 1, rng, 4, 180);

  const Prepared pd = prepare(t, deep);
  Sdmu sdmu_deep(deep);
  Sdmu sdmu_shallow(shallow);
  for (const EncodedTile& tile : pd.tiles) {
    const SdmuStats a = sdmu_deep.simulate_tile(tile, 2);
    const SdmuStats b = sdmu_shallow.simulate_tile(tile, 2);
    EXPECT_EQ(all_matches(sdmu_deep.matches()), all_matches(sdmu_shallow.matches()));
    EXPECT_GE(b.cycles, a.cycles);
  }
}

TEST(SdmuSimulateTest, EmptyTileCostsOnlyScan) {
  // A tile with a single site has core volume - 1 skipped SRFs.
  sparse::SparseTensor t({8, 8, 8}, 1);
  t.add_site({4, 4, 4});
  ArchConfig cfg;
  const Prepared p = prepare(t, cfg);
  ASSERT_EQ(p.tiles.size(), 1U);
  Sdmu sdmu(cfg);
  const SdmuStats r = sdmu.simulate_tile(p.tiles.front(), 1);
  EXPECT_EQ(r.srf_active, 1);
  EXPECT_EQ(r.srf_skipped, 511);
  EXPECT_EQ(r.matches, 1);
  // Scan-bound: cycles ~ 512 * 3 + fill.
  EXPECT_NEAR(static_cast<double>(r.cycles),
              static_cast<double>(512 * cfg.mask_read_cycles), 32.0);
}

TEST(SdmuStatsTest, MergeAccumulates) {
  SdmuStats a;
  a.cycles = 10;
  a.matches = 5;
  a.fifo_high_water = 3;
  SdmuStats b;
  b.cycles = 7;
  b.matches = 2;
  b.fifo_high_water = 6;
  a.merge(b);
  EXPECT_EQ(a.cycles, 17);
  EXPECT_EQ(a.matches, 7);
  EXPECT_EQ(a.fifo_high_water, 6U);
}

TEST(SdmuSimulateTest, RejectsBadCcRate) {
  Rng rng(126);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({8, 8, 8}, 1, rng, 3, 40);
  const Prepared p = prepare(t, cfg);
  Sdmu sdmu(cfg);
  ASSERT_FALSE(p.tiles.empty());
  EXPECT_THROW((void)sdmu.simulate_tile(p.tiles.front(), 0), InvalidArgument);
}

}  // namespace
}  // namespace esca::core
