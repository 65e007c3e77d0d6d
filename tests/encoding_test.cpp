#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/encoding.hpp"
#include "core/zero_removing.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Encoded {
  sparse::SparseTensor geometry;
  std::vector<EncodedTile> tiles;
  EncodingStats stats;
};

Encoded encode_tensor(const sparse::SparseTensor& t, const ArchConfig& cfg) {
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const ZeroRemoving zr(cfg.tile_size);
  const TileGrid grid = zr.apply(geometry);
  EncodingStats stats;
  const TileEncoder encoder(cfg);
  auto tiles = encoder.encode(geometry, grid, &stats);
  return {std::move(geometry), std::move(tiles), stats};
}

TEST(EncodedTileTest, PaddedGeometry) {
  const EncodedTile t({1, 2, 3}, {8, 16, 24}, {8, 8, 8}, 1);
  EXPECT_EQ(t.padded_size(), (Coord3{10, 10, 10}));
  EXPECT_EQ(t.padded_origin(), (Coord3{7, 15, 23}));
  EXPECT_EQ(t.columns(), 100);
  EXPECT_EQ(t.depth(), 10);
  EXPECT_EQ(t.mask_bits(), 1000);
}

TEST(TileEncoderTest, MaskMatchesGeometry) {
  Rng rng(91);
  ArchConfig cfg;
  cfg.tile_size = {8, 8, 8};
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng);
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_FALSE(e.tiles.empty());

  for (const EncodedTile& tile : e.tiles) {
    const Coord3 po = tile.padded_origin();
    for (int x = 0; x < tile.padded_size().x; ++x) {
      for (int y = 0; y < tile.padded_size().y; ++y) {
        for (int z = 0; z < tile.padded_size().z; ++z) {
          const Coord3 global = po + Coord3{x, y, z};
          const bool active = in_bounds(global, e.geometry.spatial_extent()) &&
                              e.geometry.contains(global);
          EXPECT_EQ(tile.mask_at(tile.column_of(x, y), z), active)
              << "tile " << tile.tile_coord() << " at " << global;
        }
      }
    }
  }
}

TEST(TileEncoderTest, ColumnPrefixEqualsPopcount) {
  Rng rng(92);
  ArchConfig cfg;
  cfg.tile_size = {4, 4, 4};
  const auto t = test::clustered_tensor({16, 16, 16}, 1, rng, 5, 120);
  const Encoded e = encode_tensor(t, cfg);
  for (const EncodedTile& tile : e.tiles) {
    for (int col = 0; col < tile.columns(); ++col) {
      std::int32_t count = 0;
      for (int z = 0; z <= tile.depth(); ++z) {
        EXPECT_EQ(tile.column_prefix(col, z), count);
        if (z < tile.depth() && tile.mask_at(col, z)) ++count;
      }
    }
  }
}

TEST(TileEncoderTest, SiteRowsAreColumnMajorZAscending) {
  Rng rng(93);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng);
  const Encoded e = encode_tensor(t, cfg);
  for (const EncodedTile& tile : e.tiles) {
    const auto& starts = tile.column_start();
    ASSERT_EQ(starts.size(), static_cast<std::size_t>(tile.columns()) + 1);
    for (int col = 0; col < tile.columns(); ++col) {
      const std::int32_t begin = starts[static_cast<std::size_t>(col)];
      const std::int32_t end = starts[static_cast<std::size_t>(col) + 1];
      ASSERT_LE(begin, end);
      // Walk the mask: the i-th set bit of the column must reference the
      // site at that exact z.
      std::int32_t addr = begin;
      const int x = col / tile.padded_size().y;
      const int y = col % tile.padded_size().y;
      for (int z = 0; z < tile.depth(); ++z) {
        if (!tile.mask_at(col, z)) continue;
        ASSERT_LT(addr, end);
        const Coord3 global = tile.padded_origin() + Coord3{x, y, z};
        EXPECT_EQ(tile.site_row(addr), e.geometry.find(global));
        ++addr;
      }
      EXPECT_EQ(addr, end);
    }
  }
}

TEST(TileEncoderTest, HaloIncludesNeighbourTileSites) {
  // Two sites in adjacent 8^3 tiles, one voxel apart across the boundary.
  sparse::SparseTensor t({32, 32, 32}, 1);
  t.add_site({7, 4, 4});  // tile (0,0,0)
  t.add_site({8, 4, 4});  // tile (1,0,0)
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.tiles.size(), 2U);

  // Tile (0,0,0)'s padded region must contain the neighbour (8,4,4) as halo.
  const EncodedTile& t0 = e.tiles.front();
  ASSERT_EQ(t0.tile_coord(), (Coord3{0, 0, 0}));
  const Coord3 rel = Coord3{8, 4, 4} - t0.padded_origin();
  EXPECT_TRUE(t0.mask_at(t0.column_of(rel.x, rel.y), rel.z));
  // Both tiles store both sites -> 4 stored, 2 core, 2 halo duplicates.
  EXPECT_EQ(e.stats.stored_sites, 4);
  EXPECT_EQ(e.stats.core_sites, 2);
  EXPECT_EQ(e.stats.halo_duplicates, 2);
}

TEST(TileEncoderTest, CoreActiveCountsSumToSites) {
  Rng rng(94);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng, 8, 300);
  const Encoded e = encode_tensor(t, cfg);
  std::int64_t total = 0;
  for (const EncodedTile& tile : e.tiles) total += tile.core_active_count();
  EXPECT_EQ(total, static_cast<std::int64_t>(t.size()));
  EXPECT_EQ(e.stats.core_sites, total);
}

TEST(TileEncoderTest, StatsMaskBytesMatchGeometry) {
  sparse::SparseTensor t({16, 16, 16}, 1);
  t.add_site({0, 0, 0});
  ArchConfig cfg;
  cfg.tile_size = {8, 8, 8};
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.stats.tiles, 1);
  // Padded 10^3 = 1000 bits -> 125 bytes.
  EXPECT_EQ(e.stats.mask_bytes, 125);
}

TEST(TileEncoderTest, GridBorderTilesClampHalo) {
  // A site at the grid corner: halo would extend outside; encoder must not
  // read out of bounds and the mask stays consistent.
  sparse::SparseTensor t({8, 8, 8}, 1);
  t.add_site({0, 0, 0});
  t.add_site({7, 7, 7});
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.tiles.size(), 1U);
  const EncodedTile& tile = e.tiles.front();
  EXPECT_EQ(tile.core_active_count(), 2);
  EXPECT_EQ(tile.stored_sites(), 2);
}

}  // namespace
}  // namespace esca::core
