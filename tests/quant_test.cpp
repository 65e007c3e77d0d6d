#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quant/qtensor.hpp"
#include "quant/quantizer.hpp"
#include "test_util.hpp"

namespace esca::quant {
namespace {

TEST(QuantizerTest, CalibrateMapsAbsMaxToQmax) {
  const QuantParams p = calibrate(12.7F, kInt8Max);
  EXPECT_NEAR(p.scale, 0.1F, 1e-6F);
  EXPECT_EQ(quantize_value(12.7F, p, kInt8Max), 127);
  EXPECT_EQ(quantize_value(-12.7F, p, kInt8Max), -127);
}

TEST(QuantizerTest, CalibrateZeroTensorUsesNeutralScale) {
  const QuantParams p = calibrate(0.0F, kInt16Max);
  EXPECT_FLOAT_EQ(p.scale, 1.0F);
  EXPECT_EQ(quantize_value(0.0F, p, kInt16Max), 0);
}

TEST(QuantizerTest, SaturatesOutOfRange) {
  const QuantParams p{1.0F};
  EXPECT_EQ(quantize_value(1e9F, p, kInt8Max), 127);
  EXPECT_EQ(quantize_value(-1e9F, p, kInt8Max), -127);
}

TEST(QuantizerTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(71);
  std::vector<float> values(1000);
  for (auto& v : values) v = rng.uniform_f(-5.0F, 5.0F);
  const QuantParams p = calibrate(5.0F, kInt16Max);
  EXPECT_LE(quantization_error(values, p, kInt16Max), p.scale * 0.5F + 1e-7F);
}

TEST(QuantizerTest, Int8VectorQuantization) {
  const QuantParams p{0.5F};
  const std::vector<float> v{0.0F, 0.49F, 0.51F, -1.0F, 100.0F};
  const auto q = quantize_int8(v, p);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 1);
  EXPECT_EQ(q[2], 1);
  EXPECT_EQ(q[3], -2);
  EXPECT_EQ(q[4], 127);  // saturated
}

TEST(QuantizerTest, RoundHalfToEven) {
  const QuantParams p{1.0F};
  // nearbyint default rounding: ties to even.
  EXPECT_EQ(quantize_value(0.5F, p, kInt16Max), 0);
  EXPECT_EQ(quantize_value(1.5F, p, kInt16Max), 2);
  EXPECT_EQ(quantize_value(2.5F, p, kInt16Max), 2);
}

TEST(QTensorTest, FromFloatRoundTrip) {
  Rng rng(72);
  const auto t = test::random_sparse_tensor({10, 10, 10}, 4, 0.1, rng);
  const QSparseTensor q = QSparseTensor::from_float_calibrated(t);
  EXPECT_EQ(q.size(), t.size());
  EXPECT_EQ(q.channels(), 4);
  const auto back = q.to_float();
  // Round-trip error bounded by scale/2 per entry.
  EXPECT_LE(sparse::max_abs_diff(t, back), q.params().scale * 0.5F + 1e-6F);
}

TEST(QTensorTest, PreservesCoordinates) {
  Rng rng(73);
  const auto t = test::random_sparse_tensor({8, 8, 8}, 2, 0.15, rng);
  const QSparseTensor q = QSparseTensor::from_float_calibrated(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(q.find(t.coord(i)), 0);
  }
  EXPECT_EQ(q.find({7, 7, 7}) >= 0, t.find({7, 7, 7}) >= 0);
}

TEST(QTensorTest, EqualityDetectsValueDifferences) {
  Rng rng(74);
  const auto t = test::random_sparse_tensor({8, 8, 8}, 2, 0.1, rng);
  const QSparseTensor a = QSparseTensor::from_float_calibrated(t);
  QSparseTensor b = a;
  EXPECT_TRUE(a == b);
  if (b.size() > 0) {
    b.features(0)[0] = static_cast<std::int16_t>(b.features(0)[0] + 1);
    EXPECT_FALSE(a == b);
  }
}

TEST(QTensorTest, EqualityComparesScaleAndExtent) {
  Rng rng(75);
  const auto t = test::random_sparse_tensor({8, 8, 8}, 2, 0.1, rng);
  const QSparseTensor a = QSparseTensor::from_float(t, QuantParams{0.01F});
  // The same sites and int16 values under another scale, and in a larger
  // extent: bit-exact checks must not pass a wrong scale or extent.
  QSparseTensor rescaled =
      QSparseTensor::from_coords({8, 8, 8}, 2, QuantParams{0.02F}, a.coords(), t.index());
  QSparseTensor grown =
      QSparseTensor::from_coords({9, 9, 9}, 2, a.params(), a.coords(), t.index());
  for (std::size_t r = 0; r < a.size(); ++r) {
    std::ranges::copy(a.features(r), rescaled.features(r).begin());
    std::ranges::copy(a.features(r), grown.features(r).begin());
  }
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == rescaled);
  EXPECT_FALSE(a == grown);
}

TEST(QTensorTest, EqualityDetectsCoordDifferences) {
  QSparseTensor a({4, 4, 4}, 1, QuantParams{1.0F});
  QSparseTensor b({4, 4, 4}, 1, QuantParams{1.0F});
  a.add_site({0, 0, 0});
  b.add_site({1, 1, 1});
  EXPECT_FALSE(a == b);
}

TEST(QTensorTest, DuplicateAndOutOfBoundsSitesThrow) {
  QSparseTensor q({4, 4, 4}, 1, QuantParams{1.0F});
  q.add_site({0, 0, 0});
  EXPECT_THROW(q.add_site({0, 0, 0}), InvalidArgument);
  EXPECT_THROW(q.add_site({4, 0, 0}), InvalidArgument);
  EXPECT_THROW(QSparseTensor({4, 4, 4}, 1, QuantParams{0.0F}), InvalidArgument);
}

TEST(QTensorTest, Int16RangeRespected) {
  sparse::SparseTensor t({4, 4, 4}, 1);
  const float big[] = {1000.0F};
  const float small[] = {-1000.0F};
  t.add_site({0, 0, 0}, big);
  t.add_site({1, 1, 1}, small);
  const QSparseTensor q = QSparseTensor::from_float_calibrated(t);
  const auto r0 = static_cast<std::size_t>(q.find({0, 0, 0}));
  const auto r1 = static_cast<std::size_t>(q.find({1, 1, 1}));
  EXPECT_EQ(q.features(r0)[0], kInt16Max);
  EXPECT_EQ(q.features(r1)[0], -kInt16Max);
}

}  // namespace
}  // namespace esca::quant
