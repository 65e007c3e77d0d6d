// Non-cubic geometry: rectangular grids and anisotropic tiles. The paper
// presents N x M x L tiles as configurable (§III.A); this suite proves the
// whole pipeline honours that, not just the cubic defaults.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

using M = std::tuple<std::int32_t, std::int16_t, std::int32_t>;

std::set<M> sdmu_matches(const sparse::SparseTensor& geometry, const ArchConfig& cfg) {
  const TileGrid grid = ZeroRemoving(cfg.tile_size).apply(geometry);
  const auto tiles = TileEncoder(cfg).encode(geometry, grid, nullptr);
  std::set<M> out;
  for (const Match& m : test::sdmu_stream(cfg, tiles)) {
    EXPECT_TRUE(out.insert({m.in_row, m.weight_index, m.out_row}).second);
  }
  return out;
}

std::set<M> rulebook_matches(const sparse::SparseTensor& geometry, int k) {
  const sparse::RuleBook rb = sparse::build_submanifold_geometry(geometry, k).rulebook;
  std::set<M> out;
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    for (const auto& r : rb.rules_for(o)) {
      out.insert({r.in_row, static_cast<std::int16_t>(o), r.out_row});
    }
  }
  return out;
}

TEST(AnisotropicTest, RectangularGridMatchingIsExact) {
  Rng rng(801);
  sparse::SparseTensor t(Coord3{40, 12, 24}, 1);
  for (int i = 0; i < 300; ++i) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, 39)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 11)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 23))};
    if (!t.contains(c)) (void)t.add_site(c);
  }
  t.sort_canonical();
  ArchConfig cfg;
  EXPECT_EQ(sdmu_matches(t, cfg), rulebook_matches(t, cfg.kernel_size));
}

TEST(AnisotropicTest, AnisotropicTilesMatchingIsExact) {
  Rng rng(802);
  const auto t = test::random_sparse_tensor({24, 24, 24}, 1, 0.02, rng);
  for (const Coord3 tile : {Coord3{4, 8, 16}, Coord3{16, 8, 4}, Coord3{2, 12, 6}}) {
    ArchConfig cfg;
    cfg.tile_size = tile;
    EXPECT_EQ(sdmu_matches(t, cfg), rulebook_matches(t, cfg.kernel_size))
        << "tile " << tile;
  }
}

TEST(AnisotropicTest, AcceleratorBitExactOnAnisotropicTiles) {
  Rng rng(803);
  const auto x = test::clustered_tensor({24, 24, 24}, 3, rng, 6, 200);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 3, 5, 3);
  conv.init_kaiming(rng);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x, geometry);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  const auto layer =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "a");

  for (const Coord3 tile : {Coord3{4, 8, 16}, Coord3{16, 4, 8}, Coord3{3, 5, 7}}) {
    SCOPED_TRACE(testing::Message() << "tile " << tile);
    ArchConfig cfg;
    cfg.tile_size = tile;
    Accelerator acc{cfg};
    test::expect_closed_forms(acc.run_layer(layer, geometry), geometry, cfg);
  }
}

TEST(AnisotropicTest, TileCountsFollowCeilDivPerAxis) {
  sparse::SparseTensor t({40, 12, 24}, 1);
  t.add_site({0, 0, 0});
  ZeroRemovingStats stats;
  (void)ZeroRemoving({16, 8, 10}).apply(t, &stats);
  // ceil(40/16)=3, ceil(12/8)=2, ceil(24/10)=3.
  EXPECT_EQ(stats.total_tiles, 3 * 2 * 3);
}

TEST(AnisotropicTest, ScanAxisShorterThanKernelStillWorks) {
  // Tiles shallower than the kernel window along z force window clipping in
  // every SRF.
  Rng rng(804);
  const auto t = test::random_sparse_tensor({16, 16, 16}, 1, 0.05, rng);
  ArchConfig cfg;
  cfg.tile_size = {8, 8, 1};
  EXPECT_EQ(sdmu_matches(t, cfg), rulebook_matches(t, cfg.kernel_size));
}

TEST(AnisotropicTest, GridNotMultipleOfTileIsExact) {
  Rng rng(805);
  sparse::SparseTensor t(Coord3{17, 19, 23}, 1);
  for (int i = 0; i < 220; ++i) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, 16)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 18)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 22))};
    if (!t.contains(c)) (void)t.add_site(c);
  }
  t.sort_canonical();
  ArchConfig cfg;  // 8^3 tiles over a 17x19x23 grid: ragged edge tiles
  EXPECT_EQ(sdmu_matches(t, cfg), rulebook_matches(t, cfg.kernel_size));
}

}  // namespace
}  // namespace esca::core
