// Per-output-channel weight quantization (extension; see qsubconv.hpp):
// must reduce quantization error when channel weight magnitudes are
// imbalanced.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "test_util.hpp"

namespace esca::quant {
namespace {

/// Conv with deliberately imbalanced per-channel weight magnitudes (channel
/// c scaled by 4^-c) — the case per-channel quantization exists for.
nn::SparseConv3d imbalanced_conv(int cin, int cout, Rng& rng) {
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
  conv.init_kaiming(rng);
  auto w = conv.weights();
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto co = static_cast<int>(i % static_cast<std::size_t>(cout));
    w[i] *= std::pow(0.25F, static_cast<float>(co));
  }
  return conv;
}

struct Errors {
  float per_tensor;
  float per_channel;
};

/// Max |float - dequantized| restricted to one output channel — per-tensor
/// quantization crushes the *small* channels, which is exactly where the
/// per-channel variant must win.
float channel_error(const sparse::SparseTensor& ref, const sparse::SparseTensor& got,
                    int channel) {
  float m = 0.0F;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto j = static_cast<std::size_t>(got.find(ref.coord(i)));
    m = std::max(m, std::fabs(ref.feature(i, channel) - got.feature(j, channel)));
  }
  return m;
}

Errors compare_granularities(const sparse::SparseTensor& x, const nn::SparseConv3d& conv,
                             int channel) {
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  const sparse::SparseTensor fy = conv.forward(x, geometry);
  const float in_scale = calibrate(x.abs_max(), kInt16Max).scale;
  const float out_scale = calibrate(fy.abs_max(), kInt16Max).scale;
  const QSparseTensor qx = QSparseTensor::from_float(x, QuantParams{in_scale});

  auto run = [&](WeightGranularity g) {
    const QuantizedConv layer =
        QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "g", g);
    return channel_error(fy, layer.forward(qx, geometry).to_float(), channel);
  };
  return {run(WeightGranularity::kPerTensor), run(WeightGranularity::kPerChannel)};
}

TEST(PerChannelQuantTest, ReducesErrorOnSmallestChannel) {
  Rng rng(601);
  const auto x = test::clustered_tensor({16, 16, 16}, 4, rng, 5, 150);
  const auto conv = imbalanced_conv(4, 6, rng);
  // Channel 5 carries weights scaled by 4^-5 ~ 1e-3 of channel 0: per-tensor
  // INT8 leaves it ~1 quantization step of resolution.
  const Errors e = compare_granularities(x, conv, /*channel=*/5);
  EXPECT_LT(e.per_channel, e.per_tensor * 0.5F)
      << "per-channel should cut small-channel error at least 2x";
}

TEST(PerChannelQuantTest, ComparableOnDominantChannel) {
  Rng rng(602);
  const auto x = test::clustered_tensor({16, 16, 16}, 4, rng, 5, 150);
  const auto conv = imbalanced_conv(4, 6, rng);
  // Channel 0 dominates the per-tensor scale, so both granularities give it
  // the same resolution.
  const Errors e = compare_granularities(x, conv, /*channel=*/0);
  EXPECT_LT(e.per_channel, e.per_tensor * 2.0F + 1e-6F);
  EXPECT_LT(e.per_tensor, e.per_channel * 2.0F + 1e-6F);
}

TEST(PerChannelQuantTest, ScalesVectorHasOneEntryPerChannel) {
  Rng rng(603);
  const auto conv = imbalanced_conv(3, 5, rng);
  const auto per_tensor =
      QuantizedConv::from_float(conv, nullptr, false, 0.01F, 0.01F, "t");
  const auto per_channel = QuantizedConv::from_float(
      conv, nullptr, false, 0.01F, 0.01F, "c", WeightGranularity::kPerChannel);
  EXPECT_EQ(per_tensor.weight_scales().size(), 1U);
  EXPECT_EQ(per_channel.weight_scales().size(), 5U);
  EXPECT_EQ(per_tensor.granularity(), WeightGranularity::kPerTensor);
  EXPECT_EQ(per_channel.granularity(), WeightGranularity::kPerChannel);
  // Imbalanced channels => strictly decreasing per-channel scales.
  EXPECT_GT(per_channel.weight_scales()[0], per_channel.weight_scales()[4]);
}

TEST(PerChannelQuantTest, PerChannelWeightsSaturateIndependently) {
  // Channel 0 huge, channel 1 tiny: per-tensor flushes channel 1 to zero,
  // per-channel preserves it.
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 2, 3);
  auto w = conv.weights();
  for (std::size_t i = 0; i < w.size(); i += 2) w[i] = 100.0F;      // co = 0
  for (std::size_t i = 1; i < w.size(); i += 2) w[i] = 0.001F;      // co = 1
  const auto per_tensor =
      QuantizedConv::from_float(conv, nullptr, false, 1.0F, 1.0F, "t");
  const auto per_channel = QuantizedConv::from_float(
      conv, nullptr, false, 1.0F, 1.0F, "c", WeightGranularity::kPerChannel);
  EXPECT_EQ(per_tensor.weight(13, 0, 1), 0);    // flushed
  EXPECT_EQ(per_channel.weight(13, 0, 1), 127); // full resolution
}

}  // namespace
}  // namespace esca::quant
