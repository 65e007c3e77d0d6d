#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/encoding.hpp"
#include "core/state_index.hpp"
#include "core/zero_removing.hpp"
#include "sparse/rulebook.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Encoded {
  sparse::SparseTensor geometry;
  std::vector<EncodedTile> tiles;
};

Encoded encode_tensor(const sparse::SparseTensor& t, const ArchConfig& cfg) {
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const ZeroRemoving zr(cfg.tile_size);
  const TileGrid grid = zr.apply(geometry);
  const TileEncoder encoder(cfg);
  auto tiles = encoder.encode(geometry, grid, nullptr);
  return {std::move(geometry), std::move(tiles)};
}

/// The matches of one column of the SRF centred at padded `c`.
std::vector<Match> column_matches(const StateIndexGenerator& gen, const EncodedTile& tile,
                                  const Coord3& c, int dx, int dy, std::int32_t out_row) {
  std::vector<Match> out(static_cast<std::size_t>(gen.kernel_size()));
  const int n = gen.column_matches(tile, c.x, c.y, c.z, dx, dy, out_row, out);
  out.resize(static_cast<std::size_t>(n));
  return out;
}

TEST(StateIndexTest, MatchesBruteForceWindowCounts) {
  Rng rng(111);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng, 7, 250);
  const Encoded e = encode_tensor(t, cfg);
  const StateIndexGenerator gen(3);

  for (const EncodedTile& tile : e.tiles) {
    for (int col = 0; col < tile.columns(); ++col) {
      for (int cz = 1; cz < tile.depth() - 1; ++cz) {
        const StateIndex s = gen.generate(tile, col, cz);
        // Brute force: A counts set bits through cz+1, B within the window.
        std::int32_t a = 0;
        std::int32_t b = 0;
        for (int z = 0; z <= cz + 1; ++z) {
          if (tile.mask_at(col, z)) ++a;
        }
        for (int z = cz - 1; z <= cz + 1; ++z) {
          if (tile.mask_at(col, z)) ++b;
        }
        EXPECT_EQ(s.a, a) << "col " << col << " cz " << cz;
        EXPECT_EQ(s.b, b) << "col " << col << " cz " << cz;
      }
    }
  }
}

TEST(StateIndexTest, FragmentIsAMinusBToA) {
  const StateIndex s{7, 3};
  const AddressFragment f = StateIndexGenerator::to_fragment(s);
  EXPECT_EQ(f.begin, 4);
  EXPECT_EQ(f.end, 7);
  EXPECT_EQ(f.length(), 3);
}

TEST(StateIndexTest, WindowClipsAtTileBorders) {
  sparse::SparseTensor t({8, 8, 8}, 1);
  t.add_site({4, 4, 0});  // z at the grid edge
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.tiles.size(), 1U);
  const EncodedTile& tile = e.tiles.front();
  const StateIndexGenerator gen(3);
  // The site is at padded z = 1 (core z=0 + radius 1). A window centered on
  // padded z = 0 would extend below the tile; generate() must clip.
  const int col = tile.column_of(5, 5);  // padded coords of (4,4)
  const StateIndex s = gen.generate(tile, col, 0);
  EXPECT_EQ(s.b, 1);  // window [0,1] sees the bit at z=1
}

TEST(ColumnMatchesTest, WeightIndicesFollowKernelConvention) {
  // Single center site with one neighbour per column direction.
  sparse::SparseTensor t({16, 16, 16}, 1);
  t.add_site({8, 8, 8});
  t.add_site({7, 8, 8});   // dx=-1
  t.add_site({8, 9, 9});   // dy=+1, dz=+1
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  const StateIndexGenerator gen(3);

  // Locate the tile containing the center and its padded coords.
  for (const EncodedTile& tile : e.tiles) {
    const Coord3 rel = Coord3{8, 8, 8} - tile.padded_origin();
    const int r = 1;
    if (rel.x < r || rel.y < r || rel.z < r || rel.x >= r + tile.core_size().x ||
        rel.y >= r + tile.core_size().y || rel.z >= r + tile.core_size().z) {
      continue;
    }
    const std::int32_t out_row = e.geometry.find({8, 8, 8});

    // Column (dx=-1, dy=0): expect one match with weight offset (-1,0,0).
    const auto m1 = column_matches(gen, tile, rel, -1, 0, out_row);
    ASSERT_EQ(m1.size(), 1U);
    EXPECT_EQ(m1[0].weight_index, sparse::kernel_offset_index({-1, 0, 0}, 3));
    EXPECT_EQ(m1[0].in_row, e.geometry.find({7, 8, 8}));
    EXPECT_EQ(m1[0].out_row, out_row);
    EXPECT_EQ(m1[0].column, (0 + 1) * 3 + (-1 + 1));  // (dy+1)*3 + (dx+1) = 3

    // Column (dx=0, dy=+1): neighbour at dz=+1.
    const auto m2 = column_matches(gen, tile, rel, 0, 1, out_row);
    ASSERT_EQ(m2.size(), 1U);
    EXPECT_EQ(m2[0].weight_index, sparse::kernel_offset_index({0, 1, 1}, 3));

    // Center column: the site itself.
    const auto mc = column_matches(gen, tile, rel, 0, 0, out_row);
    ASSERT_EQ(mc.size(), 1U);
    EXPECT_EQ(mc[0].weight_index, sparse::kernel_offset_index({0, 0, 0}, 3));
    EXPECT_EQ(mc[0].in_row, out_row);

    // An empty column yields nothing.
    const auto m3 = column_matches(gen, tile, rel, 1, -1, out_row);
    EXPECT_TRUE(m3.empty());
    return;
  }
  FAIL() << "center tile not found";
}

TEST(ColumnMatchesTest, MatchesAreZAscending) {
  sparse::SparseTensor t({8, 8, 8}, 1);
  t.add_site({4, 4, 3});
  t.add_site({4, 4, 4});
  t.add_site({4, 4, 5});
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.tiles.size(), 1U);
  const EncodedTile& tile = e.tiles.front();
  const StateIndexGenerator gen(3);
  const Coord3 rel = Coord3{4, 4, 4} - tile.padded_origin();
  const std::int32_t out_row = e.geometry.find({4, 4, 4});
  const auto matches = column_matches(gen, tile, rel, 0, 0, out_row);
  ASSERT_EQ(matches.size(), 3U);
  EXPECT_EQ(matches[0].weight_index, sparse::kernel_offset_index({0, 0, -1}, 3));
  EXPECT_EQ(matches[1].weight_index, sparse::kernel_offset_index({0, 0, 0}, 3));
  EXPECT_EQ(matches[2].weight_index, sparse::kernel_offset_index({0, 0, 1}, 3));
}

TEST(StateIndexTest, RejectsEvenKernel) {
  EXPECT_THROW(StateIndexGenerator(2), InvalidArgument);
  EXPECT_THROW(StateIndexGenerator(0), InvalidArgument);
}

}  // namespace
}  // namespace esca::core
