#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/linear.hpp"
#include "nn/sparse_conv.hpp"
#include "test_util.hpp"

namespace esca::nn {
namespace {

TEST(SparseConvTest, DownsampleHalvesCoordinates) {
  Rng rng(51);
  const auto x = test::random_sparse_tensor({16, 16, 16}, 2, 0.05, rng);
  SparseConv3d down(sparse::GeometryKind::kDownsample, 2, 4, 2, 2);
  down.init_kaiming(rng);
  const auto y = down.forward(x, sparse::build_downsample_geometry(x, 2, 2));
  EXPECT_EQ(y.channels(), 4);
  EXPECT_EQ(y.spatial_extent(), (Coord3{8, 8, 8}));
  // Every output coord must be the floor-half of some input coord.
  std::set<Coord3> expected;
  for (const auto& c : x.coords()) expected.insert(c.floordiv(2));
  EXPECT_EQ(y.size(), expected.size());
  for (const auto& c : y.coords()) EXPECT_TRUE(expected.contains(c));
}

TEST(SparseConvTest, SingleInputSumsThroughItsKernelCell) {
  SparseConv3d down(sparse::GeometryKind::kDownsample, 1, 1, 2, 2);
  // Input at (1,0,1) lies in kernel cell (1,0,1) of output (0,0,0):
  // offset index o = (kz*2 + ky)*2 + kx = (2+0)*2+1 = 5.
  for (std::size_t i = 0; i < down.weights().size(); ++i) down.weights()[i] = 0.0F;
  down.weights()[5] = 3.0F;
  sparse::SparseTensor x({4, 4, 4}, 1);
  const float f[] = {2.0F};
  x.add_site({1, 0, 1}, f);
  const auto y = down.forward(x, sparse::build_downsample_geometry(x, 2, 2));
  ASSERT_EQ(y.size(), 1U);
  EXPECT_EQ(y.coord(0), (Coord3{0, 0, 0}));
  EXPECT_FLOAT_EQ(y.feature(0, 0), 6.0F);
}

TEST(SparseConvTest, MacsCountsRules) {
  Rng rng(52);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 3, 0.1, rng);
  const SparseConv3d down(sparse::GeometryKind::kDownsample, 3, 5, 2, 2);
  // K=2, s=2: each input site has exactly one covering output -> one rule.
  EXPECT_EQ(sparse::build_downsample_geometry(x, down.kernel_size(), down.stride())
                .macs(down.in_channels(), down.out_channels()),
            static_cast<std::int64_t>(x.size()) * 3 * 5);
}

TEST(InverseConvTest, RestoresTargetCoordinateSet) {
  Rng rng(53);
  const auto fine = test::random_sparse_tensor({12, 12, 12}, 2, 0.06, rng);
  SparseConv3d down(sparse::GeometryKind::kDownsample, 2, 4, 2, 2);
  down.init_kaiming(rng);
  const sparse::LayerGeometry ds = sparse::build_downsample_geometry(fine, 2, 2);
  const auto coarse = down.forward(fine, ds);

  SparseConv3d up(sparse::GeometryKind::kInverse, 4, 2, 2, 2);
  up.init_kaiming(rng);
  // The output sites come from the geometry: fine's rows, in fine's order.
  const auto restored = up.forward(coarse, sparse::transpose_downsample_geometry(ds));
  EXPECT_EQ(restored.spatial_extent(), fine.spatial_extent());
  EXPECT_EQ(restored.channels(), 2);
  EXPECT_EQ(restored.coords(), fine.coords());
  for (std::size_t i = 0; i < fine.size(); ++i) {
    EXPECT_EQ(restored.find(fine.coord(i)), static_cast<std::int32_t>(i));
  }
}

TEST(InverseConvTest, RoundTripWithIdentityWeights) {
  // Down (K=2,s=2) then up with weights arranged so up(down(x)) copies the
  // downsampled value back to each fine site: every fine site receives the
  // coarse feature of its cell.
  sparse::SparseTensor x({4, 4, 4}, 1);
  const float fa[] = {5.0F};
  x.add_site({0, 0, 0}, fa);

  SparseConv3d down(sparse::GeometryKind::kDownsample, 1, 1, 2, 2);
  for (std::size_t i = 0; i < down.weights().size(); ++i) down.weights()[i] = 1.0F;
  const sparse::LayerGeometry ds = sparse::build_downsample_geometry(x, 2, 2);
  const auto coarse = down.forward(x, ds);
  ASSERT_EQ(coarse.size(), 1U);
  EXPECT_FLOAT_EQ(coarse.feature(0, 0), 5.0F);

  SparseConv3d up(sparse::GeometryKind::kInverse, 1, 1, 2, 2);
  for (std::size_t i = 0; i < up.weights().size(); ++i) up.weights()[i] = 1.0F;
  const auto restored = up.forward(coarse, sparse::transpose_downsample_geometry(ds));
  ASSERT_EQ(restored.size(), 1U);
  EXPECT_FLOAT_EQ(restored.feature(0, 0), 5.0F);
}

TEST(BatchNormTest, IdentityByDefault) {
  Rng rng(54);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 3, 0.1, rng);
  const BatchNorm bn(3);
  const auto y = bn.forward(x);
  EXPECT_LT(sparse::max_abs_diff(x, y), 1e-5F);
}

TEST(BatchNormTest, NormalizesWithStatistics) {
  BatchNorm bn(1, /*eps=*/0.0F + 1e-12F);
  bn.gamma()[0] = 2.0F;
  bn.beta()[0] = 1.0F;
  bn.running_mean()[0] = 3.0F;
  bn.running_var()[0] = 4.0F;
  sparse::SparseTensor x({4, 4, 4}, 1);
  const float f[] = {5.0F};
  x.add_site({0, 0, 0}, f);
  const auto y = bn.forward(x);
  // (5-3)/2 * 2 + 1 = 3.
  EXPECT_NEAR(y.feature(0, 0), 3.0F, 1e-4F);
}

TEST(BatchNormTest, FoldedAffineMatchesForward) {
  Rng rng(55);
  BatchNorm bn(4);
  bn.randomize(rng);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 4, 0.1, rng);
  const auto y = bn.forward(x);
  const auto affine = bn.folded();
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (int c = 0; c < 4; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      EXPECT_NEAR(y.feature(i, c), affine.scale[ci] * x.feature(i, c) + affine.shift[ci],
                  1e-5F);
    }
  }
}

TEST(BatchNormTest, ChannelMismatchThrows) {
  const BatchNorm bn(3);
  sparse::SparseTensor x({4, 4, 4}, 2);
  x.add_site({0, 0, 0});
  EXPECT_THROW((void)bn.forward(x), InvalidArgument);
}

TEST(ActivationsTest, ReluClampsNegatives) {
  sparse::SparseTensor x({4, 4, 4}, 2);
  const float f[] = {-1.5F, 2.0F};
  x.add_site({0, 0, 0}, f);
  const auto y = relu(x);
  EXPECT_FLOAT_EQ(y.feature(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(y.feature(0, 1), 2.0F);
}

TEST(ActivationsTest, LeakyReluScalesNegatives) {
  sparse::SparseTensor x({4, 4, 4}, 1);
  const float f[] = {-2.0F};
  x.add_site({0, 0, 0}, f);
  leaky_relu_inplace(x, 0.1F);
  EXPECT_NEAR(x.feature(0, 0), -0.2F, 1e-6F);
}

TEST(LinearTest, MatVecPerSite) {
  Linear lin(2, 3, /*bias=*/true);
  // W[ci][co]: x0 goes to out0, x1 goes to out1 doubled; out2 = bias only.
  std::fill(lin.weights().begin(), lin.weights().end(), 0.0F);
  lin.weights()[0 * 3 + 0] = 1.0F;
  lin.weights()[1 * 3 + 1] = 2.0F;
  lin.bias()[2] = 7.0F;
  sparse::SparseTensor x({4, 4, 4}, 2);
  const float f[] = {3.0F, 4.0F};
  x.add_site({1, 1, 1}, f);
  const auto y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.feature(0, 0), 3.0F);
  EXPECT_FLOAT_EQ(y.feature(0, 1), 8.0F);
  EXPECT_FLOAT_EQ(y.feature(0, 2), 7.0F);
  EXPECT_EQ(lin.macs(x), 1 * 2 * 3);
}

TEST(ConcatTest, StacksChannels) {
  Rng rng(56);
  const auto a = test::random_sparse_tensor({6, 6, 6}, 2, 0.2, rng);
  sparse::SparseTensor b = a.zeros_like(3);
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (int c = 0; c < 3; ++c) b.set_feature(i, c, 1.0F + static_cast<float>(c));
  }
  const auto y = concat_channels(a, b);
  EXPECT_EQ(y.channels(), 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(y.feature(i, 0), a.feature(i, 0));
    EXPECT_FLOAT_EQ(y.feature(i, 2), 1.0F);
    EXPECT_FLOAT_EQ(y.feature(i, 4), 3.0F);
  }
}

TEST(ConcatTest, MismatchedCoordsThrow) {
  sparse::SparseTensor a({4, 4, 4}, 1);
  a.add_site({0, 0, 0});
  sparse::SparseTensor b({4, 4, 4}, 1);
  b.add_site({1, 1, 1});
  EXPECT_THROW((void)concat_channels(a, b), InvalidArgument);
}

}  // namespace
}  // namespace esca::nn
