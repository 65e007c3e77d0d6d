#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sparse/sparse_tensor.hpp"
#include "test_util.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::sparse {
namespace {

TEST(SparseTensorTest, AddAndFind) {
  SparseTensor t({8, 8, 8}, 2);
  const auto r0 = t.add_site({1, 2, 3});
  const auto r1 = t.add_site({3, 2, 1});
  EXPECT_EQ(t.size(), 2U);
  EXPECT_EQ(t.find({1, 2, 3}), r0);
  EXPECT_EQ(t.find({3, 2, 1}), r1);
  EXPECT_EQ(t.find({0, 0, 0}), -1);
  EXPECT_TRUE(t.contains({1, 2, 3}));
}

TEST(SparseTensorTest, DuplicateSiteThrows) {
  SparseTensor t({8, 8, 8}, 1);
  t.add_site({1, 1, 1});
  EXPECT_THROW(t.add_site({1, 1, 1}), InvalidArgument);
}

TEST(SparseTensorTest, OutOfBoundsSiteThrows) {
  SparseTensor t({8, 8, 8}, 1);
  EXPECT_THROW(t.add_site({8, 0, 0}), InvalidArgument);
  EXPECT_THROW(SparseTensor({0, 8, 8}, 1), InvalidArgument);
  EXPECT_THROW(SparseTensor({8, 8, 8}, 0), InvalidArgument);
}

TEST(SparseTensorTest, FeatureAccess) {
  SparseTensor t({4, 4, 4}, 3);
  const float feats[] = {1.0F, -2.0F, 3.0F};
  const auto row = t.add_site({0, 0, 0}, feats);
  EXPECT_FLOAT_EQ(t.feature(static_cast<std::size_t>(row), 1), -2.0F);
  t.set_feature(static_cast<std::size_t>(row), 2, 9.0F);
  EXPECT_FLOAT_EQ(t.features(static_cast<std::size_t>(row))[2], 9.0F);
}

TEST(SparseTensorTest, AddSiteFeatureSizeMismatchThrows) {
  SparseTensor t({4, 4, 4}, 3);
  const float two[] = {1.0F, 2.0F};
  EXPECT_THROW(t.add_site({0, 0, 0}, two), InvalidArgument);
}

TEST(SparseTensorTest, FromVoxelGridCopiesOccupancy) {
  const voxel::VoxelGrid g{{8, 8, 8}, {{1, 1, 1}, {2, 2, 2}}, {0.5F, 1.5F}};
  const SparseTensor t = SparseTensor::from_voxel_grid(g, 2);
  EXPECT_EQ(t.size(), 2U);
  EXPECT_EQ(t.channels(), 2);
  const auto row = t.find({2, 2, 2});
  ASSERT_GE(row, 0);
  EXPECT_FLOAT_EQ(t.feature(static_cast<std::size_t>(row), 0), 1.5F);
  EXPECT_FLOAT_EQ(t.feature(static_cast<std::size_t>(row), 1), 0.0F);
}

TEST(SparseTensorTest, FromVoxelGridBulkBuildMatchesIncrementalReference) {
  // from_voxel_grid copies the grid and builds the CoordIndex with one
  // rebuild; it must be indistinguishable from the incremental add_site
  // path over the same rows.
  Rng rng(31);
  pc::PointCloud cloud;
  for (int i = 0; i < 600; ++i) {
    cloud.add({rng.uniform_f(0.0F, 1.0F), rng.uniform_f(0.0F, 1.0F), rng.uniform_f(0.0F, 1.0F)},
              static_cast<float>(rng.uniform(0.1, 2.0)));
  }
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = 24});

  const SparseTensor bulk = SparseTensor::from_voxel_grid(grid, 3);
  SparseTensor reference(grid.extent, 3);
  for (std::size_t i = 0; i < grid.coords.size(); ++i) {
    const auto row = reference.add_site(grid.coords[i]);
    reference.set_feature(static_cast<std::size_t>(row), 0, grid.features[i]);
  }

  ASSERT_EQ(bulk.size(), reference.size());
  EXPECT_TRUE(bulk.canonically_sorted());
  EXPECT_TRUE(reference.canonically_sorted());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(bulk.coord(i), reference.coord(i));
    for (int c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(bulk.feature(i, c), reference.feature(i, c));
    EXPECT_EQ(bulk.find(bulk.coord(i)), static_cast<std::int32_t>(i));
  }
  EXPECT_FLOAT_EQ(max_abs_diff(bulk, reference), 0.0F);
}

TEST(SparseTensorTest, FromVoxelGridRejectsExtentBeyondMortonRange) {
  // The tensor constructor guards the conversion: a grid extent outside the
  // 2^21 Morton coordinate range cannot be indexed.
  const voxel::VoxelGrid grid{{1 << 22, 8, 8}, {}, {}};
  EXPECT_THROW((void)SparseTensor::from_voxel_grid(grid, 1), InvalidArgument);
}

TEST(SparseTensorTest, FromVoxelGridRejectsMalformedGrids) {
  const voxel::VoxelGrid short_features{{8, 8, 8}, {{1, 1, 1}, {2, 2, 2}}, {0.5F}};
  EXPECT_THROW((void)SparseTensor::from_voxel_grid(short_features, 1), InvalidArgument);
  const voxel::VoxelGrid outside{{8, 8, 8}, {{1, 1, 1}, {1, 8, 1}}, {0.5F, 1.5F}};
  EXPECT_THROW((void)SparseTensor::from_voxel_grid(outside, 1), InvalidArgument);
  const voxel::VoxelGrid duplicate{{8, 8, 8}, {{1, 1, 1}, {1, 1, 1}}, {0.5F, 1.5F}};
  EXPECT_THROW((void)SparseTensor::from_voxel_grid(duplicate, 1), InvalidArgument);
}

TEST(SparseTensorTest, ZerosLikeSharesCoords) {
  Rng rng(2);
  const SparseTensor t = test::random_sparse_tensor({16, 16, 16}, 4, 0.05, rng);
  const SparseTensor z = t.zeros_like(7);
  EXPECT_EQ(z.size(), t.size());
  EXPECT_EQ(z.channels(), 7);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(z.coord(i), t.coord(i));
    for (int c = 0; c < 7; ++c) EXPECT_FLOAT_EQ(z.feature(i, c), 0.0F);
  }
}

TEST(SparseTensorTest, SortCanonicalOrdersAndKeepsFeatures) {
  SparseTensor t({8, 8, 8}, 1);
  const float f2[] = {2.0F};
  const float f1[] = {1.0F};
  const float f3[] = {3.0F};
  t.add_site({7, 7, 7}, f2);
  t.add_site({0, 0, 0}, f1);
  t.add_site({1, 0, 0}, f3);
  t.sort_canonical();
  EXPECT_EQ(t.coord(0), (Coord3{0, 0, 0}));
  EXPECT_EQ(t.coord(1), (Coord3{1, 0, 0}));
  EXPECT_EQ(t.coord(2), (Coord3{7, 7, 7}));
  EXPECT_FLOAT_EQ(t.feature(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(t.feature(1, 0), 3.0F);
  EXPECT_FLOAT_EQ(t.feature(2, 0), 2.0F);
  // Index stays consistent after the permutation.
  EXPECT_EQ(t.find({7, 7, 7}), 2);
}

TEST(SparseTensorTest, AbsMax) {
  SparseTensor t({4, 4, 4}, 2);
  const float a[] = {0.5F, -3.0F};
  const float b[] = {2.0F, 1.0F};
  t.add_site({0, 0, 0}, a);
  t.add_site({1, 1, 1}, b);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0F);
  const SparseTensor empty({4, 4, 4}, 1);
  EXPECT_FLOAT_EQ(empty.abs_max(), 0.0F);
}

TEST(SparseTensorTest, MaxAbsDiff) {
  Rng rng(4);
  const SparseTensor a = test::random_sparse_tensor({8, 8, 8}, 3, 0.2, rng);
  SparseTensor b = a;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0F);
  b.set_feature(0, 0, b.feature(0, 0) + 0.25F);
  EXPECT_NEAR(max_abs_diff(a, b), 0.25F, 1e-6F);
}

TEST(SparseTensorTest, ReservePreservesSemantics) {
  SparseTensor t({16, 16, 16}, 2);
  t.reserve(100);
  const float f[] = {1.0F, 2.0F};
  for (int i = 0; i < 10; ++i) t.add_site({i, i, i}, f);
  EXPECT_EQ(t.size(), 10U);
  EXPECT_EQ(t.find({4, 4, 4}), 4);
  EXPECT_FLOAT_EQ(t.feature(7, 1), 2.0F);
}

TEST(SparseTensorTest, CanonicallySortedFlagTracksInsertionOrder) {
  SparseTensor t({8, 8, 8}, 1);
  EXPECT_TRUE(t.canonically_sorted());  // vacuously
  t.add_site({0, 0, 0});
  t.add_site({1, 0, 0});
  t.add_site({0, 1, 0});  // (z,y,x) order: still ascending
  EXPECT_TRUE(t.canonically_sorted());
  t.add_site({5, 0, 0});  // out of order
  EXPECT_FALSE(t.canonically_sorted());
  t.sort_canonical();
  EXPECT_TRUE(t.canonically_sorted());
  EXPECT_TRUE(t.zeros_like(3).canonically_sorted());
}

TEST(SparseTensorTest, MaxAbsDiffFastPathMatchesLookupPath) {
  // a: canonically sorted; b: same sites in a different row order. The
  // sorted/sorted pair takes the row-aligned fast path, the mixed pair the
  // lookup fallback — both must agree.
  Rng rng(9);
  const SparseTensor a = test::random_sparse_tensor({10, 10, 10}, 2, 0.15, rng);
  ASSERT_TRUE(a.canonically_sorted());

  SparseTensor sorted_copy = a;
  sorted_copy.set_feature(0, 0, a.feature(0, 0) + 0.5F);
  ASSERT_TRUE(sorted_copy.canonically_sorted());
  EXPECT_NEAR(max_abs_diff(a, sorted_copy), 0.5F, 1e-6F);

  SparseTensor reversed(a.spatial_extent(), a.channels());
  for (std::size_t i = a.size(); i-- > 0;) {
    reversed.add_site(a.coord(i), a.features(i));
  }
  ASSERT_FALSE(reversed.canonically_sorted());
  reversed.set_feature(reversed.size() - 1, 0, a.feature(0, 0) + 0.5F);
  EXPECT_NEAR(max_abs_diff(a, reversed), 0.5F, 1e-6F);
  EXPECT_NEAR(max_abs_diff(reversed, a), 0.5F, 1e-6F);
}

TEST(SparseTensorTest, MaxAbsDiffRejectsMismatchedShapes) {
  SparseTensor a({4, 4, 4}, 1);
  SparseTensor b({4, 4, 4}, 2);
  a.add_site({0, 0, 0});
  b.add_site({0, 0, 0});
  EXPECT_THROW((void)max_abs_diff(a, b), InvalidArgument);

  SparseTensor c({4, 4, 4}, 1);
  c.add_site({1, 1, 1});
  EXPECT_THROW((void)max_abs_diff(a, c), InvalidArgument);
}

}  // namespace
}  // namespace esca::sparse
