#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "test_util.hpp"

namespace esca::quant {
namespace {

TEST(RequantizeTest, BasicScaling) {
  EXPECT_EQ(requantize(100, 0.5F, 0.0F, false), 50);
  EXPECT_EQ(requantize(-100, 0.5F, 0.0F, false), -50);
  EXPECT_EQ(requantize(0, 1.0F, 2.4F, false), 2);
}

TEST(RequantizeTest, ReluClampsNegative) {
  EXPECT_EQ(requantize(-100, 1.0F, 0.0F, true), 0);
  EXPECT_EQ(requantize(100, 1.0F, 0.0F, true), 100);
  // Shift applies before the clamp.
  EXPECT_EQ(requantize(10, 1.0F, -20.0F, true), 0);
}

TEST(RequantizeTest, SaturatesToInt16) {
  EXPECT_EQ(requantize(1'000'000'000, 1.0F, 0.0F, false), kInt16Max);
  EXPECT_EQ(requantize(-1'000'000'000, 1.0F, 0.0F, false), -kInt16Max);
}

// Values past the int32 range saturate with their sign, in requantize and
// in quantize_value alike: a float-to-int cast ahead of the clamp is
// undefined there (INT_MIN on x86, which clamps to -qmax).
TEST(RequantizeTest, SaturatesPastTheInt32RangeWithItsSign) {
  constexpr std::int64_t kHuge = std::int64_t{1} << 40;
  EXPECT_EQ(requantize(kHuge, 1.0F, 0.0F, false), kInt16Max);
  EXPECT_EQ(requantize(-kHuge, 1.0F, 0.0F, false), -kInt16Max);
  EXPECT_EQ(requantize(3'000'000'000, 1.0F, 0.0F, true), kInt16Max);  // ReLU stays >= 0
  EXPECT_EQ(requantize(-kHuge, 1.0F, 0.0F, true), 0);
  EXPECT_EQ(quantize_value(1e6F, QuantParams{1e-5F}, kInt16Max), kInt16Max);
  EXPECT_EQ(quantize_value(-1e6F, QuantParams{1e-5F}, kInt16Max), -kInt16Max);
  EXPECT_EQ(quantize_value(3e38F, QuantParams{1.0F}, kInt8Max), kInt8Max);
  EXPECT_EQ(quantize_value(-3e38F, QuantParams{1.0F}, kInt8Max), -kInt8Max);
}

/// Builds a quantized layer + input from float parts; returns max |float -
/// dequantized| over all outputs.
float quantized_vs_float_error(const sparse::SparseTensor& x, nn::SparseConv3d& conv,
                               const nn::BatchNorm* bn, bool relu) {
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  sparse::SparseTensor fy = conv.forward(x, geometry);
  if (bn != nullptr) bn->forward_inplace(fy);
  if (relu) nn::relu_inplace(fy);

  const float in_scale = calibrate(x.abs_max(), kInt16Max).scale;
  const float out_scale = calibrate(fy.abs_max(), kInt16Max).scale;
  const QuantizedConv qconv =
      QuantizedConv::from_float(conv, bn, relu, in_scale, out_scale, "test");
  const QSparseTensor qx = QSparseTensor::from_float(x, QuantParams{in_scale});
  const QSparseTensor qy = qconv.forward(qx, geometry);
  return sparse::max_abs_diff(fy, qy.to_float());
}

TEST(QuantizedConvTest, TracksFloatModelWithinQuantError) {
  Rng rng(81);
  for (int trial = 0; trial < 4; ++trial) {
    const int cin = 2 + trial;
    const int cout = 3 + trial;
    const auto x = test::random_sparse_tensor({10, 10, 10}, cin, 0.08, rng);
    nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
    conv.init_kaiming(rng);
    const sparse::SparseTensor fy = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
    // Error budget: INT8 weight error accumulates over the receptive field
    // (up to K^3 x Cin taps), so the envelope is relative to the signal, not
    // a few output quantization steps. Empirically ~0.4 % here; assert 1 %.
    const float err = quantized_vs_float_error(x, conv, nullptr, false);
    EXPECT_LT(err, 0.01F * fy.abs_max() + 1e-5F) << "trial " << trial;
    EXPECT_GT(err, 0.0F) << "trial " << trial;  // quantization is not a no-op
  }
}

TEST(QuantizedConvTest, BnAndReluFoldCorrectly) {
  Rng rng(82);
  const auto x = test::random_sparse_tensor({10, 10, 10}, 3, 0.08, rng);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 3, 4, 3);
  conv.init_kaiming(rng);
  nn::BatchNorm bn(4);
  bn.randomize(rng);

  sparse::SparseTensor fy = conv.forward(x, sparse::build_submanifold_geometry(x, 3));
  bn.forward_inplace(fy);
  nn::relu_inplace(fy);
  const float err = quantized_vs_float_error(x, conv, &bn, true);
  EXPECT_LT(err, 0.03F * (fy.abs_max() + 1.0F));
}

TEST(QuantizedConvTest, ReluOutputsNonNegative) {
  Rng rng(83);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 2, 0.12, rng);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 3, 3);
  conv.init_kaiming(rng);
  const float in_scale = calibrate(x.abs_max(), kInt16Max).scale;
  const QuantizedConv q =
      QuantizedConv::from_float(conv, nullptr, true, in_scale, 0.01F, "relu");
  const QSparseTensor qy = q.forward(QSparseTensor::from_float(x, QuantParams{in_scale}),
                                     sparse::build_submanifold_geometry(x, 3));
  for (std::size_t i = 0; i < qy.size(); ++i) {
    for (const std::int16_t v : qy.features(i)) EXPECT_GE(v, 0);
  }
}

TEST(QuantizedConvTest, WeightLayoutAccessor) {
  Rng rng(84);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 3, 3);
  conv.init_kaiming(rng);
  const QuantizedConv q =
      QuantizedConv::from_float(conv, nullptr, false, 1.0F, 1.0F, "w");
  // weight(o, ci, co) must agree with the flat layout [o][ci][co].
  for (int o = 0; o < 27; ++o) {
    for (int ci = 0; ci < 2; ++ci) {
      for (int co = 0; co < 3; ++co) {
        const std::size_t flat =
            (static_cast<std::size_t>(o) * 2 + static_cast<std::size_t>(ci)) * 3 +
            static_cast<std::size_t>(co);
        EXPECT_EQ(q.weight(o, ci, co), q.weights()[flat]);
      }
    }
  }
  EXPECT_EQ(q.weight_bytes(), 27 * 2 * 3);
}

TEST(QuantizedConvTest, OutputCoordsMatchInput) {
  Rng rng(85);
  const auto x = test::random_sparse_tensor({8, 8, 8}, 2, 0.1, rng);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 2, 3);
  conv.init_kaiming(rng);
  const QuantizedConv q =
      QuantizedConv::from_float(conv, nullptr, false, 0.01F, 0.01F, "coords");
  const QSparseTensor qx = QSparseTensor::from_float(x, QuantParams{0.01F});
  const QSparseTensor qy = q.forward(qx, sparse::build_submanifold_geometry(x, 3));
  EXPECT_EQ(qy.size(), qx.size());
  for (std::size_t i = 0; i < qx.size(); ++i) {
    EXPECT_GE(qy.find(qx.coord(i)), 0);
  }
}

TEST(QuantizedConvTest, RejectsBadScalesAndChannelMismatch) {
  Rng rng(86);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 2, 3);
  conv.init_kaiming(rng);
  EXPECT_THROW((void)QuantizedConv::from_float(conv, nullptr, false, 0.0F, 1.0F),
               InvalidArgument);
  const QuantizedConv q =
      QuantizedConv::from_float(conv, nullptr, false, 1.0F, 1.0F, "q");
  QSparseTensor wrong({4, 4, 4}, 3, QuantParams{1.0F});
  wrong.add_site({0, 0, 0});
  EXPECT_THROW((void)q.forward(wrong, sparse::build_submanifold_geometry(wrong.sites(), 3)),
               InvalidArgument);
}

TEST(QuantizedConvTest, BnChannelMismatchThrows) {
  Rng rng(87);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 3, 3);
  conv.init_kaiming(rng);
  nn::BatchNorm bn(5);  // wrong channel count
  EXPECT_THROW((void)QuantizedConv::from_float(conv, &bn, false, 1.0F, 1.0F),
               InvalidArgument);
}

}  // namespace
}  // namespace esca::quant
