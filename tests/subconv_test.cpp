#include <gtest/gtest.h>

#include "baseline/dense_conv.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/sparse_conv.hpp"
#include "sparse/geometry.hpp"
#include "sparse/testing/reference.hpp"
#include "test_util.hpp"

namespace esca::nn {
namespace {

TEST(SubConvTest, ConstructionValidation) {
  EXPECT_NO_THROW(SparseConv3d(sparse::GeometryKind::kSubmanifold, 4, 8, 3));
  EXPECT_THROW(SparseConv3d(sparse::GeometryKind::kSubmanifold, 0, 8, 3), InvalidArgument);
  EXPECT_THROW(SparseConv3d(sparse::GeometryKind::kSubmanifold, 4, 8, 2),
               InvalidArgument);  // even kernel
  const SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 4, 8, 3);
  EXPECT_EQ(conv.weights().size(), 27U * 4U * 8U);
}

TEST(SubConvTest, OutputCoordsEqualInputCoords) {
  Rng rng(41);
  const auto x = test::random_sparse_tensor({12, 12, 12}, 3, 0.05, rng);
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 3, 5, 3);
  conv.init_kaiming(rng);
  const auto y = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
  ASSERT_EQ(y.size(), x.size());
  EXPECT_EQ(y.channels(), 5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y.coord(i), x.coord(i));
  }
}

TEST(SubConvTest, RulebookPathMatchesNaivePath) {
  Rng rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    const int cin = 1 + trial % 3;
    const int cout = 2 + trial % 4;
    const auto x = test::random_sparse_tensor({10, 10, 10}, cin, 0.08, rng);
    SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
    conv.init_kaiming(rng);
    const auto fast = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
    const auto naive = sparse::oracle::forward_naive(conv, x);
    EXPECT_LT(sparse::max_abs_diff(fast, naive), 1e-4F) << "trial " << trial;
  }
}

TEST(SubConvTest, IsolatedSiteUsesOnlyCenterWeight) {
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 1, 3);
  // All weights zero except the center tap.
  conv.weights()[13] = 2.0F;
  sparse::SparseTensor x({9, 9, 9}, 1);
  const float f[] = {1.5F};
  x.add_site({4, 4, 4}, f);
  const auto y = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
  EXPECT_FLOAT_EQ(y.feature(0, 0), 3.0F);
}

TEST(SubConvTest, NeighbourContributesThroughItsOffsetWeight) {
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 1, 3);
  // Input neighbour at offset (+1, 0, 0) relative to the output: index 14.
  conv.weights()[static_cast<std::size_t>(sparse::kernel_offset_index({1, 0, 0}, 3))] = 1.0F;
  sparse::SparseTensor x({9, 9, 9}, 1);
  const float fa[] = {1.0F};
  const float fb[] = {10.0F};
  x.add_site({4, 4, 4}, fa);
  x.add_site({5, 4, 4}, fb);
  const auto y = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
  const auto row_a = static_cast<std::size_t>(y.find({4, 4, 4}));
  const auto row_b = static_cast<std::size_t>(y.find({5, 4, 4}));
  EXPECT_FLOAT_EQ(y.feature(row_a, 0), 10.0F);  // neighbour at +x exists
  EXPECT_FLOAT_EQ(y.feature(row_b, 0), 0.0F);   // no site at (6,4,4)
}

TEST(SubConvTest, AgreesWithDenseConvOnActiveSites) {
  // On sites whose full neighbourhood is active, Sub-Conv equals dense conv.
  // Build a solid 4^3 block inside a 8^3 grid: interior sites have all 27
  // neighbours active.
  Rng rng(44);
  sparse::SparseTensor x({8, 8, 8}, 2);
  for (int z = 2; z < 6; ++z) {
    for (int y = 2; y < 6; ++y) {
      for (int xx = 2; xx < 6; ++xx) {
        const auto row = x.add_site({xx, y, z});
        for (int c = 0; c < 2; ++c) {
          x.set_feature(static_cast<std::size_t>(row), c, rng.uniform_f(-1, 1));
        }
      }
    }
  }
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 3, 3);
  conv.init_kaiming(rng);
  const auto sparse_out = conv.forward(x, sparse::build_submanifold_geometry(x, 3));

  const baseline::DenseTensor dense_in = baseline::densify(x);
  const baseline::DenseTensor dense_out =
      baseline::dense_conv3d(dense_in, conv.weights(), 3, 3);

  // Interior of the block: 3,4 on each axis.
  for (int z = 3; z < 5; ++z) {
    for (int y = 3; y < 5; ++y) {
      for (int xx = 3; xx < 5; ++xx) {
        const auto row = static_cast<std::size_t>(sparse_out.find({xx, y, z}));
        for (int c = 0; c < 3; ++c) {
          EXPECT_NEAR(sparse_out.feature(row, c), dense_out.at({xx, y, z}, c), 1e-4F);
        }
      }
    }
  }
}

TEST(SubConvTest, BiasAddedPerOutputChannel) {
  Rng rng(45);
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 2, 3, /*stride=*/1, /*bias=*/true);
  conv.bias()[0] = 0.5F;
  conv.bias()[1] = -1.0F;
  sparse::SparseTensor x({5, 5, 5}, 1);
  x.add_site({2, 2, 2});  // zero feature
  const auto y = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
  EXPECT_FLOAT_EQ(y.feature(0, 0), 0.5F);
  EXPECT_FLOAT_EQ(y.feature(0, 1), -1.0F);
  const auto ynaive = sparse::oracle::forward_naive(conv, x);
  EXPECT_FLOAT_EQ(ynaive.feature(0, 1), -1.0F);
}

TEST(SubConvTest, MacsEqualsRulebookTimesChannels) {
  Rng rng(46);
  const auto x = test::random_sparse_tensor({10, 10, 10}, 4, 0.1, rng);
  const SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 4, 6, 3);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  EXPECT_EQ(geometry.macs(conv.in_channels(), conv.out_channels()),
            geometry.rulebook.total_rules() * 4 * 6);
}

TEST(SubConvTest, ChannelMismatchThrows) {
  Rng rng(47);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 3, 0.1, rng);
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 4, 6, 3);
  EXPECT_THROW((void)conv.forward(x, sparse::build_submanifold_geometry(x, 3)), InvalidArgument);
}

TEST(SubConvTest, LinearityInInput) {
  Rng rng(48);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 2, 0.1, rng);
  SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 2, 3);
  conv.init_kaiming(rng);
  // Scale input by 2 -> output scales by 2 (no bias).
  sparse::SparseTensor x2 = x;
  for (float& v : x2.raw_features()) v *= 2.0F;
  const auto y = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
  const auto y2 = conv.forward(x2, sparse::build_submanifold_geometry(x2, 3));
  for (std::size_t i = 0; i < y.size(); ++i) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(y2.feature(i, c), 2.0F * y.feature(i, c), 1e-4F);
    }
  }
}

}  // namespace
}  // namespace esca::nn
