#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/zero_removing.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

sparse::SparseTensor tensor_of(Coord3 extent, std::initializer_list<Coord3> sites) {
  sparse::SparseTensor t(extent, 1);
  for (const Coord3& c : sites) t.add_site(c);
  return t;
}

/// apply() against a per-site reference: each site's tile (site / size per
/// axis), collected in an ordered set, so sorted and unique. Every tile of
/// the padded tile space must be found exactly when the reference holds it.
void expect_matches_reference(const sparse::SparseTensor& t, const Coord3& size) {
  SCOPED_TRACE(::testing::Message() << "extent " << t.spatial_extent() << " tile " << size);
  std::set<Coord3> reference;
  for (const Coord3& c : t.coords()) reference.insert({c.x / size.x, c.y / size.y, c.z / size.z});

  ZeroRemovingStats stats;
  const TileGrid grid = ZeroRemoving(size).apply(t, &stats);
  EXPECT_EQ(grid.tiles(), std::vector<Coord3>(reference.begin(), reference.end()));
  EXPECT_EQ(stats.active_tiles, static_cast<std::int64_t>(reference.size()));

  const Coord3 e = t.spatial_extent();
  const Coord3 tiles_extent{(e.x + size.x - 1) / size.x, (e.y + size.y - 1) / size.y,
                            (e.z + size.z - 1) / size.z};
  ASSERT_EQ(grid.tiles_extent(), tiles_extent);
  for (std::int64_t i = 0; i < tiles_extent.volume(); ++i) {
    const Coord3 tile = delinearize(i, tiles_extent);
    const std::int64_t found = grid.find_tile(tile);
    if (!reference.contains(tile)) {
      EXPECT_EQ(found, -1) << "tile " << tile;
    } else if (found < 0) {
      ADD_FAILURE() << "active tile " << tile << " not found";
    } else {
      EXPECT_EQ(grid.tiles()[static_cast<std::size_t>(found)], tile);
    }
  }
}

TEST(ZeroRemovingTest, TilesMatchPerSiteReferenceOnRandomTensors) {
  Rng rng(105);
  for (const double density : {0.002, 0.02, 0.2}) {
    const auto t = test::random_sparse_tensor({32, 32, 32}, 1, density, rng);
    for (const std::int32_t s : {1, 2, 4, 8, 16, 32}) expect_matches_reference(t, {s, s, s});
  }
  const auto clustered = test::clustered_tensor({64, 64, 64}, 1, rng, 10, 400);
  expect_matches_reference(clustered, {8, 8, 8});

  // Rows in arrival order rather than canonical order.
  sparse::SparseTensor arrival({32, 32, 32}, 1);
  for (int i = 0; i < 300; ++i) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, 31)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 31)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 31))};
    if (!arrival.contains(c)) arrival.add_site(c);
  }
  ASSERT_FALSE(arrival.canonically_sorted());
  expect_matches_reference(arrival, {4, 4, 4});
}

TEST(ZeroRemovingTest, TilesMatchPerSiteReferenceOnNonDivisibleExtents) {
  Rng rng(106);
  for (const Coord3 extent : {Coord3{10, 10, 10}, Coord3{13, 7, 29}, Coord3{1, 33, 5}}) {
    const auto t = test::random_sparse_tensor(extent, 1, 0.1, rng);
    for (const std::int32_t s : {3, 4, 6, 8}) expect_matches_reference(t, {s, s, s});
  }
}

TEST(ZeroRemovingTest, TilesMatchPerSiteReferenceOnAnisotropicShapes) {
  Rng rng(107);
  const auto t = test::random_sparse_tensor({24, 20, 30}, 1, 0.02, rng);
  for (const Coord3 size :
       {Coord3{4, 8, 16}, Coord3{16, 8, 4}, Coord3{2, 3, 5}, Coord3{1, 20, 7}}) {
    expect_matches_reference(t, size);
  }
}

TEST(ZeroRemovingTest, StatsMatchTileGrid) {
  Rng rng(101);
  const auto t = test::clustered_tensor({64, 64, 64}, 1, rng, 10, 400);
  const ZeroRemoving zr({8, 8, 8});
  ZeroRemovingStats stats;
  const TileGrid tiles = zr.apply(t, &stats);
  EXPECT_EQ(stats.active_tiles, tiles.active_tiles());
  EXPECT_EQ(stats.total_tiles, 512);
  EXPECT_DOUBLE_EQ(stats.removing_ratio, tiles.removing_ratio());
  EXPECT_EQ(stats.active_sites, static_cast<std::int64_t>(t.size()));
  EXPECT_EQ(stats.kept_voxels, stats.active_tiles * 512);
  EXPECT_EQ(stats.total_voxels, 64LL * 64 * 64);
}

TEST(ZeroRemovingTest, LosslessSiteCoverage) {
  // Every site lies inside the box of an active tile: removal drops only
  // all-zero regions.
  Rng rng(102);
  const auto t = test::random_sparse_tensor({48, 48, 48}, 1, 0.01, rng);
  const Coord3 size{8, 8, 8};
  const TileGrid tiles = ZeroRemoving(size).apply(t);
  for (const Coord3& c : t.coords()) {
    const Coord3 tile{c.x / size.x, c.y / size.y, c.z / size.z};
    ASSERT_GE(tiles.find_tile(tile), 0) << "site " << c;
    EXPECT_TRUE(in_bounds(c - tiles.origin(tile), size)) << "site " << c;
  }
}

TEST(ZeroRemovingTest, FinerNestedTilesKeepFewerVoxels) {
  // For *nested* tile sizes (each dividing the next) a finer partition never
  // keeps more voxels: every active coarse tile is a union of fine tiles of
  // which only the active ones survive. (The paper's Table I trend; note it
  // is not a theorem for non-nested sizes like 12 vs 16.)
  Rng rng(103);
  const auto t = test::clustered_tensor({96, 96, 96}, 1, rng, 12, 600);
  std::int64_t previous_kept = 0;
  bool first = true;
  for (const std::int32_t size : {4, 8, 16, 32}) {
    ZeroRemovingStats stats;
    (void)ZeroRemoving({size, size, size}).apply(t, &stats);
    if (!first) {
      EXPECT_GE(stats.kept_voxels, previous_kept) << "tile size " << size;
    }
    first = false;
    previous_kept = stats.kept_voxels;
    EXPECT_GT(stats.removing_ratio, 0.9) << "tile size " << size;
  }
}

TEST(ZeroRemovingTest, Table1AllTileCounts) {
  // The paper's Table I: a 192^3 map has 110 592 / 13 824 / 4 096 / 1 728
  // tiles at sizes 4^3 / 8^3 / 12^3 / 16^3.
  const struct {
    std::int32_t size;
    std::int64_t all;
  } rows[] = {{4, 110592}, {8, 13824}, {12, 4096}, {16, 1728}};
  for (const Coord3& site : {Coord3{0, 0, 0}, Coord3{96, 96, 96}}) {
    const auto t = tensor_of({192, 192, 192}, {site});
    for (const auto& row : rows) {
      SCOPED_TRACE(::testing::Message() << "site " << site << " tile size " << row.size);
      ZeroRemovingStats stats;
      const TileGrid tiles = ZeroRemoving({row.size, row.size, row.size}).apply(t, &stats);
      EXPECT_EQ(stats.total_tiles, row.all);
      EXPECT_EQ(stats.active_tiles, 1);
      EXPECT_EQ(tiles.total_tiles(), row.all);
      EXPECT_EQ(tiles.tiles(), (std::vector<Coord3>{site.floordiv(row.size)}));
    }
  }
}

TEST(ZeroRemovingTest, EmptyTensorYieldsNoActiveTiles) {
  const struct {
    Coord3 extent;
    std::int32_t size;
  } cases[] = {{{32, 32, 32}, 8}, {{16, 16, 16}, 4}};
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "extent " << c.extent << " tile size " << c.size);
    ZeroRemovingStats stats;
    const TileGrid tiles =
        ZeroRemoving({c.size, c.size, c.size}).apply(tensor_of(c.extent, {}), &stats);
    EXPECT_EQ(stats.active_tiles, 0);
    EXPECT_EQ(stats.active_sites, 0);
    EXPECT_DOUBLE_EQ(stats.removing_ratio, 1.0);
    EXPECT_EQ(tiles.active_tiles(), 0);
    EXPECT_EQ(tiles.find_tile({0, 0, 0}), -1);
  }
}

TEST(ZeroRemovingTest, RejectsBadTileSize) {
  EXPECT_THROW(ZeroRemoving({0, 8, 8}), InvalidArgument);
  EXPECT_THROW(ZeroRemoving({8, -8, 8}), InvalidArgument);
  EXPECT_THROW(ZeroRemoving({8, 8, 0}), InvalidArgument);
}

TEST(TileGridTest, TotalTileCountsMatchTableI) {
  // The paper's Table I: a 192^3 map has 110 592 / 13 824 / 4 096 / 1 728
  // tiles at sizes 4^3 / 8^3 / 12^3 / 16^3.
  const auto t = tensor_of({192, 192, 192}, {{0, 0, 0}});
  const struct {
    std::int32_t size;
    std::int64_t expected;
  } cases[] = {{4, 110592}, {8, 13824}, {12, 4096}, {16, 1728}};
  for (const auto& c : cases) {
    const TileGrid tiles = ZeroRemoving({c.size, c.size, c.size}).apply(t);
    EXPECT_EQ(tiles.total_tiles(), c.expected) << "tile size " << c.size;
    EXPECT_EQ(tiles.tiles(), (std::vector<Coord3>{{0, 0, 0}})) << "tile size " << c.size;
  }
}

TEST(TileGridTest, NonDivisibleExtentRoundsUp) {
  const TileGrid tiles = ZeroRemoving({4, 4, 4}).apply(tensor_of({10, 10, 10}, {{9, 9, 9}}));
  EXPECT_EQ(tiles.tiles_extent(), (Coord3{3, 3, 3}));
  EXPECT_EQ(tiles.total_tiles(), 27);
  EXPECT_EQ(tiles.find_tile({2, 2, 2}), 0);
}

TEST(TileGridTest, ActiveTilesContainTheirVoxels) {
  // (7,7,7) shares (0,0,0)'s 8^3 tile; (8,0,0) opens the next tile in x.
  const TileGrid tiles = ZeroRemoving({8, 8, 8}).apply(
      tensor_of({32, 32, 32}, {{0, 0, 0}, {7, 7, 7}, {8, 0, 0}, {31, 31, 31}}));
  EXPECT_EQ(tiles.active_tiles(), 3);
  EXPECT_EQ(tiles.find_tile({0, 0, 0}), 0);
  EXPECT_EQ(tiles.find_tile({1, 0, 0}), 1);
  EXPECT_EQ(tiles.find_tile({3, 3, 3}), 2);
  EXPECT_EQ(tiles.find_tile({2, 2, 2}), -1);
  EXPECT_EQ(tiles.origin({1, 0, 0}), (Coord3{8, 0, 0}));
  EXPECT_EQ(tiles.origin({3, 3, 3}), (Coord3{24, 24, 24}));
}

TEST(TileGridTest, RemovingRatioMatchesDefinition) {
  const TileGrid tiles = ZeroRemoving({8, 8, 8}).apply(tensor_of({16, 16, 16}, {{0, 0, 0}}));
  EXPECT_EQ(tiles.total_tiles(), 8);
  EXPECT_EQ(tiles.active_tiles(), 1);
  EXPECT_DOUBLE_EQ(tiles.removing_ratio(), 7.0 / 8.0);
}

TEST(TileGridTest, OccupiedVoxelsPreserved) {
  // Zero removing counts every site once, whichever tile holds it.
  Rng rng(3);
  sparse::SparseTensor t({64, 64, 64}, 1);
  for (int i = 0; i < 500; ++i) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 63))};
    if (!t.contains(c)) t.add_site(c);
  }
  ZeroRemovingStats stats;
  const TileGrid tiles = ZeroRemoving({8, 8, 8}).apply(t, &stats);
  EXPECT_EQ(stats.active_sites, static_cast<std::int64_t>(t.size()));
  EXPECT_LE(tiles.active_tiles(), static_cast<std::int64_t>(t.size()));
}

TEST(TileGridTest, EmptyGridHasNoActiveTiles) {
  ZeroRemovingStats stats;
  const TileGrid tiles = ZeroRemoving({4, 4, 4}).apply(tensor_of({16, 16, 16}, {}), &stats);
  EXPECT_EQ(tiles.active_tiles(), 0);
  EXPECT_EQ(stats.active_sites, 0);
  EXPECT_EQ(tiles.find_tile({0, 0, 0}), -1);
}

TEST(TileGridTest, AnisotropicTileShape) {
  const TileGrid tiles = ZeroRemoving({4, 8, 16}).apply(tensor_of({16, 16, 16}, {{15, 0, 0}}));
  EXPECT_EQ(tiles.tiles_extent(), (Coord3{4, 2, 1}));
  EXPECT_EQ(tiles.find_tile({3, 0, 0}), 0);
  EXPECT_EQ(tiles.origin({3, 0, 0}), (Coord3{12, 0, 0}));
}

TEST(TileGridTest, RejectsBadTileSize) {
  EXPECT_THROW(ZeroRemoving({8, -8, 8}), InvalidArgument);
  EXPECT_THROW(ZeroRemoving({8, 8, 0}), InvalidArgument);
}

}  // namespace
}  // namespace esca::core
