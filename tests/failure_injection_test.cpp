// Failure injection: corrupted state, undersized resources and tampered
// parameters must be *detected*, not silently absorbed.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/encoding.hpp"
#include "nn/sparse_conv.hpp"
#include "nn/unet.hpp"
#include "quant/qconv.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Fixture {
  quant::QuantizedConv layer;
  quant::QSparseTensor input;
  sparse::LayerGeometryPtr geometry;
};

Fixture make_fixture(Rng& rng) {
  const auto x = test::clustered_tensor({24, 24, 24}, 4, rng, 6, 250);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 4, 4, 3);
  conv.init_kaiming(rng);
  auto geometry = sparse::make_submanifold_geometry(x, 3);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x, *geometry);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  auto layer =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "fi");
  auto qx = quant::QSparseTensor::from_float(x, quant::QuantParams{in_scale});
  return {std::move(layer), std::move(qx), std::move(geometry)};
}

TEST(FailureInjectionTest, TamperedLayerIsCaughtByNetworkVerification) {
  Rng rng(201);
  const auto x = test::clustered_tensor({20, 20, 20}, 1, rng, 6, 150);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 11);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);
  runtime::Engine engine;
  runtime::Plan plan = engine.compile(trace);
  ASSERT_FALSE(plan.network.layers.empty());

  // Tamper with one gold output value: the bit-exactness verification in
  // the runtime must now fail loudly.
  auto f = plan.network.layers.front().gold_output.features(0);
  f[0] = static_cast<std::int16_t>(f[0] + 1);
  runtime::Session session = engine.open_session(std::move(plan));
  EXPECT_THROW(
      (void)session.submit(runtime::FrameBatch::single(), runtime::RunOptions{.verify = true}),
      InternalError);
}

TEST(FailureInjectionTest, CorruptedEncodingColumnStartIsRejected) {
  EncodedTile tile({0, 0, 0}, {0, 0, 0}, {4, 4, 4}, 1);
  // finalize() cross-checks the activation layout against the mask.
  std::vector<std::int32_t> bad_starts(static_cast<std::size_t>(tile.columns()) + 1, 0);
  bad_starts.back() = 5;  // claims 5 stored sites
  EXPECT_THROW(tile.finalize(std::move(bad_starts), /*site_rows=*/{}, 0), InternalError);
}

TEST(FailureInjectionTest, WrongColumnStartSizeIsRejected) {
  EncodedTile tile({0, 0, 0}, {0, 0, 0}, {4, 4, 4}, 1);
  EXPECT_THROW(tile.finalize(std::vector<std::int32_t>(3, 0), {}, 0), InternalError);
}

TEST(FailureInjectionTest, UndersizedBuffersAreCountedNotSilent) {
  Rng rng(202);
  const Fixture fx = make_fixture(rng);
  ArchConfig cfg;
  cfg.activation_buffer_bytes = 64;  // absurdly small: every tile spills
  cfg.weight_buffer_bytes = 16;
  Accelerator acc{cfg};
  const LayerRunStats st = acc.run_layer(fx.layer, *fx.geometry);
  EXPECT_GT(st.buffer_spills, 0);
  // Spills cost DRAM traffic but never correctness.
  test::expect_closed_forms(st, *fx.geometry, cfg);
}

TEST(FailureInjectionTest, SpilledRunChargesMoreDram) {
  Rng rng(203);
  const Fixture fx = make_fixture(rng);
  Accelerator ok{ArchConfig{}};
  ArchConfig tiny;
  tiny.activation_buffer_bytes = 64;
  Accelerator spilling{tiny};
  const LayerRunStats a = ok.run_layer(fx.layer, *fx.geometry);
  const LayerRunStats b = spilling.run_layer(fx.layer, *fx.geometry);
  EXPECT_GT(b.dram_bytes_in, a.dram_bytes_in);
}

TEST(FailureInjectionTest, KernelArchMismatchRejected) {
  Rng rng(205);
  const Fixture fx = make_fixture(rng);  // K = 3 layer
  ArchConfig cfg;
  cfg.kernel_size = 5;
  cfg.mask_read_cycles = 5;
  Accelerator acc{cfg};
  EXPECT_THROW((void)acc.run_layer(fx.layer, *fx.geometry), InvalidArgument);
}

TEST(FailureInjectionTest, BatchRequiresPositiveCount) {
  EXPECT_THROW((void)runtime::FrameBatch::replay(0), InvalidArgument);
}

TEST(FailureInjectionTest, InvalidArchConfigsRejectedAtConstruction) {
  ArchConfig cfg;
  cfg.fifo_depth = 0;
  EXPECT_THROW(Accelerator{cfg}, InvalidArgument);
  cfg = {};
  cfg.frequency_hz = -1.0;
  EXPECT_THROW(Accelerator{cfg}, InvalidArgument);
  cfg = {};
  cfg.mask_read_cycles = 0;
  EXPECT_THROW(Accelerator{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace esca::core
