// Gather-GEMM-scatter compute engine tests: bit-identical outputs vs the
// retained scalar references (float and int8) on random rulebooks, thread-
// count determinism, empty/degenerate edge cases, scratch-arena reuse, the
// out-row-block bucketing equivalence, and the steady-state no-allocation
// contract of Session::submit's rulebook-apply path.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "quant/qtensor.hpp"
#include "runtime/engine.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/testing/reference.hpp"
#include "test_util.hpp"

namespace esca::sparse {
namespace {

/// A tensor with exactly n rows (distinct coords, linear layout), features
/// ~ U(-1, 1) with occasional exact zeros and occasional all-zero rows (the
/// per-row-skip path).
SparseTensor dense_rows_tensor(std::size_t n, int channels, Rng& rng) {
  const Coord3 extent{64, 64, 64};
  SparseTensor t(extent, channels);
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = t.add_site(delinearize(static_cast<std::int64_t>(i), extent));
    const bool zero_row = rng.bernoulli(0.1);
    for (int c = 0; c < channels; ++c) {
      const float v = (zero_row || rng.bernoulli(0.05)) ? 0.0F : rng.uniform_f(-1.0F, 1.0F);
      t.set_feature(static_cast<std::size_t>(row), c, v);
    }
  }
  return t;
}

/// A random rulebook: any (in_row, out_row) pair is fair game, duplicates
/// included — stricter than what the geometry builders emit.
RuleBook random_rulebook(int volume, std::size_t n_in, std::size_t n_out, std::size_t rules,
                         Rng& rng) {
  RuleBook rb(volume);
  for (std::size_t r = 0; r < rules; ++r) {
    const int o = static_cast<int>(rng.uniform_int(0, volume - 1));
    rb.add(o, Rule{static_cast<std::int32_t>(rng.uniform_int(0, static_cast<int>(n_in) - 1)),
                   static_cast<std::int32_t>(
                       rng.uniform_int(0, static_cast<int>(n_out) - 1))});
  }
  return rb;
}

std::vector<float> random_weights(int volume, int cin, int cout, Rng& rng) {
  std::vector<float> w(static_cast<std::size_t>(volume) * static_cast<std::size_t>(cin) *
                       static_cast<std::size_t>(cout));
  for (float& v : w) v = rng.uniform_f(-0.5F, 0.5F);
  return w;
}

/// A k=3 submanifold geometry over `sites` whose rules are `rb` — runs the
/// layer forwards on rulebooks the geometry builders would never emit.
LayerGeometry geometry_with_rules(const SparseTensor& sites, RuleBook rb) {
  LayerGeometry g(GeometryKind::kSubmanifold, 3, 1, sites.zeros_like(1));
  g.blocked = BlockedRuleBook(rb, sites.size());
  g.rulebook = std::move(rb);
  return g;
}

bool bit_identical(const SparseTensor& a, const SparseTensor& b) {
  return a.raw_features().size() == b.raw_features().size() &&
         std::memcmp(a.raw_features().data(), b.raw_features().data(),
                     a.raw_features().size() * sizeof(float)) == 0;
}

TEST(ComputeEngineTest, FloatBitIdenticalToScalarReferenceOnRandomRulebooks) {
  Rng rng(4711);
  for (int trial = 0; trial < 20; ++trial) {
    const int volume = (trial % 3 == 0) ? 1 : ((trial % 3 == 1) ? 8 : 27);
    const int cin = 1 + static_cast<int>(rng.uniform_int(0, 36));
    const int cout = 1 + static_cast<int>(rng.uniform_int(0, 36));
    const std::size_t n_in = 1 + rng.uniform_int(0, 300);
    const std::size_t n_out = 1 + rng.uniform_int(0, 300);
    const SparseTensor input = dense_rows_tensor(n_in, cin, rng);
    const RuleBook rb =
        random_rulebook(volume, n_in, n_out, rng.uniform_int(0, 2000), rng);
    const std::vector<float> weights = random_weights(volume, cin, cout, rng);

    SparseTensor expected = dense_rows_tensor(n_out, cout, rng).zeros_like(cout);
    oracle::apply_rulebook_reference(input, rb, weights, expected);

    SparseTensor got = expected.zeros_like(cout);
    default_compute_engine().apply(input, BlockedRuleBook(rb, got.size()), weights, got);
    EXPECT_TRUE(bit_identical(expected, got)) << "trial " << trial;
  }
}

TEST(ComputeEngineTest, AnyThreadCountIsBitIdentical) {
  Rng rng(991);
  const int cin = 24;
  const int cout = 40;
  const std::size_t n = 700;  // ~11 out-row blocks
  const SparseTensor input = dense_rows_tensor(n, cin, rng);
  const LayerGeometry g = build_submanifold_geometry(input, 3);
  const std::vector<float> weights = random_weights(27, cin, cout, rng);

  SparseTensor expected = input.zeros_like(cout);
  oracle::apply_rulebook_reference(input, g.rulebook, weights, expected);

  for (const int threads : {1, 2, 3, 4, 5, 16}) {
    ComputeEngine engine{ComputeOptions{.threads = threads}};
    SparseTensor got = input.zeros_like(cout);
    engine.apply(input, g.blocked, weights, got);
    EXPECT_TRUE(bit_identical(expected, got)) << "threads=" << threads;
  }
}

TEST(ComputeEngineTest, QuantizedPathMatchesScalarReference) {
  Rng rng(313);
  for (int trial = 0; trial < 8; ++trial) {
    const int cin = 1 + static_cast<int>(rng.uniform_int(0, 12));
    const int cout = 1 + static_cast<int>(rng.uniform_int(0, 12));
    nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
    conv.init_kaiming(rng);
    const quant::QuantizedConv q =
        quant::QuantizedConv::from_float(conv, nullptr, trial % 2 == 0, 0.01F, 0.01F, "t");

    const SparseTensor x = dense_rows_tensor(1 + rng.uniform_int(0, 400), cin, rng);
    const quant::QSparseTensor qx =
        quant::QSparseTensor::from_float(x, quant::QuantParams{0.01F});
    const LayerGeometry g = geometry_with_rules(
        x, random_rulebook(27, qx.size(), qx.size(), rng.uniform_int(0, 3000), rng));

    const quant::QSparseTensor expected = oracle::forward_reference(q, qx, g);
    const quant::QSparseTensor got = q.forward(qx, g);
    EXPECT_TRUE(expected == got) << "trial " << trial;
  }
}

TEST(ComputeEngineTest, QuantizedGeometryPathMatchesRulebookPath) {
  Rng rng(314);
  const int cin = 6;
  const int cout = 9;
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
  conv.init_kaiming(rng);
  const quant::QuantizedConv q =
      quant::QuantizedConv::from_float(conv, nullptr, true, 0.01F, 0.01F, "geo");
  const SparseTensor x = dense_rows_tensor(333, cin, rng);
  const quant::QSparseTensor qx = quant::QSparseTensor::from_float(x, quant::QuantParams{0.01F});

  const LayerGeometry geometry = build_submanifold_geometry(qx.sites(), 3);
  const quant::QSparseTensor via_reference = oracle::forward_reference(q, qx, geometry);
  for (const int threads : {1, 2, 4}) {
    ComputeEngine engine{ComputeOptions{.threads = threads}};
    EXPECT_TRUE(via_reference == q.forward(qx, geometry, &engine)) << "threads=" << threads;
  }
}

// The integer conv runs strided and inverse geometries through the same
// accumulate + requantize: outputs land on the geometry's output sites and
// equal the scalar reference at any engine thread count.
TEST(ComputeEngineTest, QuantizedStridedAndInverseConvsMatchScalarReference) {
  Rng rng(315);
  const int cin = 5;
  const int cout = 11;
  const SparseTensor fine = dense_rows_tensor(700, cin, rng);
  const LayerGeometry down = build_downsample_geometry(fine, 2, 2);
  const LayerGeometry up = transpose_downsample_geometry(down);
  nn::SparseConv3d down_conv(GeometryKind::kDownsample, cin, cout, 2, 2);
  nn::SparseConv3d up_conv(GeometryKind::kInverse, cout, cin, 2, 2);
  down_conv.init_kaiming(rng);
  up_conv.init_kaiming(rng);
  const SparseTensor coarse = down_conv.forward(fine, down);
  const auto scale = [](const SparseTensor& t) {
    return quant::calibrate(t.abs_max(), quant::kInt16Max).scale;
  };
  const quant::QuantizedConv qdown = quant::QuantizedConv::from_float(
      down_conv, nullptr, false, scale(fine), scale(coarse), "down");
  const quant::QuantizedConv qup = quant::QuantizedConv::from_float(
      up_conv, nullptr, true, scale(coarse), scale(up_conv.forward(coarse, up)), "up");

  const quant::QSparseTensor qfine = quant::QSparseTensor::from_float(fine, {scale(fine)});
  const quant::QSparseTensor qcoarse = oracle::forward_reference(qdown, qfine, down);
  const quant::QSparseTensor qrestored = oracle::forward_reference(qup, qcoarse, up);
  EXPECT_EQ(qcoarse.coords(), down.out_coords);
  EXPECT_EQ(qcoarse.spatial_extent(), down.out_extent);
  EXPECT_EQ(qrestored.coords(), fine.coords());
  for (const int threads : {1, 2, 4}) {
    ComputeEngine engine{ComputeOptions{.threads = threads}};
    EXPECT_TRUE(qdown.forward(qfine, down, &engine) == qcoarse) << "threads=" << threads;
    EXPECT_TRUE(qup.forward(qcoarse, up, &engine) == qrestored) << "threads=" << threads;
  }
}

TEST(ComputeEngineTest, ExtremesDoNotOverflow) {
  // The centre of a full 3x3x3 block sums 27 offsets of Cin = 512 products
  // 32767 * -127: each per-rule partial fits INT32, the 27-offset sum does not.
  constexpr int kCin = 512;
  SparseTensor x({3, 3, 3}, kCin);
  for (std::int64_t i = 0; i < 27; ++i) {
    const auto row = static_cast<std::size_t>(x.add_site(delinearize(i, {3, 3, 3})));
    for (int c = 0; c < kCin; ++c) x.set_feature(row, c, 1.0F);
  }
  x.sort_canonical();
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, kCin, 1, 3);
  for (float& w : conv.weights()) w = -1.0F;
  const float in_scale = 1.0F / static_cast<float>(quant::kInt16Max);
  const quant::QuantizedConv q =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, 1.0F, "extreme");
  const quant::QSparseTensor qx = quant::QSparseTensor::from_float(x, quant::QuantParams{in_scale});
  ASSERT_EQ(qx.features(0)[0], quant::kInt16Max);
  ASSERT_EQ(q.weight(0, 0, 0), -quant::kInt8Max);

  const LayerGeometry geometry = build_submanifold_geometry(qx.sites(), 3);
  const auto centre = static_cast<std::size_t>(qx.find({1, 1, 1}));
  ComputeEngine engine;
  const std::span<const std::int64_t> acc =
      engine.accumulate(qx.raw_features(), kCin, geometry.blocked, q.weights(), 1);
  constexpr std::int64_t kPartial = std::int64_t{kCin} * quant::kInt16Max * -quant::kInt8Max;
  EXPECT_GE(kPartial, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(acc[centre], 27 * kPartial);
  EXPECT_LT(acc[centre], std::numeric_limits<std::int32_t>::min());

  const quant::QSparseTensor out = q.forward(qx, geometry, &engine);
  EXPECT_TRUE(out == oracle::forward_reference(q, qx, geometry));
  EXPECT_EQ(out.features(centre)[0], -27 * kCin);  // = 27 * 512 * (1.0 * -1.0)
}

TEST(ComputeEngineTest, EmptyRulebookAndSingleChannelEdges) {
  Rng rng(77);
  const SparseTensor input = dense_rows_tensor(10, 1, rng);

  // No rules at all: output stays zero, nothing crashes, any thread count.
  const RuleBook empty(27);
  const std::vector<float> weights(27, 0.25F);
  for (const int threads : {1, 4}) {
    ComputeEngine engine{ComputeOptions{.threads = threads}};
    SparseTensor out = input.zeros_like(1);
    engine.apply(input, BlockedRuleBook(empty, out.size()), weights, out);
    for (std::size_t r = 0; r < out.size(); ++r) EXPECT_EQ(out.feature(r, 0), 0.0F);
  }

  // Zero output rows (empty blocked book over an empty output).
  const BlockedRuleBook none(empty, 0);
  EXPECT_EQ(none.num_blocks(), 0);
  EXPECT_EQ(none.total_rules(), 0);

  // 1x1 channels, volume 1.
  RuleBook tiny(1);
  tiny.add(0, Rule{0, 0});
  SparseTensor out = input.zeros_like(1);
  const std::vector<float> w1(1, 2.0F);
  default_compute_engine().apply(input, BlockedRuleBook(tiny, out.size()), w1, out);
  EXPECT_EQ(out.feature(0, 0), 2.0F * input.feature(0, 0));
}

TEST(ComputeEngineTest, MismatchedBlockedBookIsRejected) {
  Rng rng(78);
  const SparseTensor input = dense_rows_tensor(8, 2, rng);
  const LayerGeometry g = build_submanifold_geometry(input, 3);
  const std::vector<float> weights(27 * 2 * 3, 0.0F);
  SparseTensor wrong_rows(input.spatial_extent(), 3);  // empty: 0 != 8 rows
  ComputeEngine engine;
  EXPECT_THROW(engine.apply(input, g.blocked, weights, wrong_rows), InvalidArgument);
  const std::vector<float> bad_weights(5, 0.0F);
  SparseTensor out = input.zeros_like(3);
  EXPECT_THROW(engine.apply(input, g.blocked, bad_weights, out), InvalidArgument);
}

TEST(ComputeEngineTest, ArenaIsReusedAcrossLayersOfOneForward) {
  Rng rng(55);
  const int cin = 16;
  const SparseTensor x1 = dense_rows_tensor(500, cin, rng);
  const SparseTensor x2 = dense_rows_tensor(200, cin, rng);  // smaller "layer 2"
  const LayerGeometry g1 = build_submanifold_geometry(x1, 3);
  const LayerGeometry g2 = build_submanifold_geometry(x2, 3);
  const std::vector<float> w = random_weights(27, cin, 32, rng);

  ComputeEngine engine{ComputeOptions{.threads = 2}};
  SparseTensor y1 = x1.zeros_like(32);
  SparseTensor y2 = x2.zeros_like(32);
  // Warmup "frame": the arena grows to the larger layer's high-water mark.
  engine.apply(x1, g1.blocked, w, y1);
  engine.apply(x2, g2.blocked, w, y2);
  const std::uint64_t grows = engine.arena().grows();
  EXPECT_GT(grows, 0U);
  // Steady state: alternating layer sizes never grows the arena again.
  for (int frame = 0; frame < 3; ++frame) {
    engine.apply(x1, g1.blocked, w, y1);
    engine.apply(x2, g2.blocked, w, y2);
  }
  EXPECT_EQ(engine.arena().grows(), grows);
}

TEST(BlockedRuleBookTest, BucketsAreStablePartitionsOfTheOffsetLists) {
  Rng rng(808);
  const SparseTensor input = dense_rows_tensor(520, 1, rng);
  const LayerGeometry sub = build_submanifold_geometry(input, 3);
  const LayerGeometry down = build_downsample_geometry(input, 2, 2);
  const LayerGeometry inv = transpose_downsample_geometry(down);

  for (const LayerGeometry* g : {&sub, &down, &inv}) {
    const BlockedRuleBook& blocked = g->blocked;
    ASSERT_EQ(blocked.kernel_volume(), g->rulebook.kernel_volume());
    EXPECT_EQ(blocked.total_rules(), g->rulebook.total_rules());
    EXPECT_EQ(blocked.num_out_rows(), g->out_coords.size());
    for (int o = 0; o < blocked.kernel_volume(); ++o) {
      const auto& original = g->rulebook.rules_for(o);
      for (int b = 0; b < blocked.num_blocks(); ++b) {
        const auto [row0, row1] = blocked.block_rows(b);
        // Expected bucket: the offset's rules whose out_row lands in this
        // block, in original order (stable partition).
        std::vector<Rule> expected;
        for (const Rule& r : original) {
          if (r.out_row >= row0 && r.out_row < row1) expected.push_back(r);
        }
        const auto got = blocked.rules(b, o);
        ASSERT_EQ(got.size(), expected.size()) << "block " << b << " offset " << o;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got[i], expected[i]) << "block " << b << " offset " << o << " rule " << i;
        }
      }
    }
  }
}

TEST(BlockedRuleBookTest, RejectsOutOfRangeRows) {
  RuleBook rb(1);
  rb.add(0, Rule{0, 5});
  EXPECT_THROW((void)BlockedRuleBook(rb, 5), InvalidArgument);
  EXPECT_NO_THROW((void)BlockedRuleBook(rb, 6));
}

TEST(ComputeEngineTest, SteadyStateSessionSubmitDoesNotAllocateInApplyPath) {
  Rng rng(1212);
  const auto x = test::clustered_tensor({20, 20, 20}, 1, rng, 6, 150);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 17);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);

  runtime::RuntimeConfig rt;
  rt.backend = runtime::BackendKind::kCpu;
  runtime::Engine engine{rt};
  runtime::Session session = engine.open_session(engine.compile(trace));

  // Warmup: the backend's arena grows to the largest layer once.
  (void)session.submit(runtime::FrameBatch::replay(2));
  const obs::CounterGuard grows(compute_arena_grows_counter());
  (void)session.submit(runtime::FrameBatch::replay(4));
  EXPECT_EQ(grows.delta(), 0)
      << "steady-state frames must not grow any compute arena";
}

}  // namespace
}  // namespace esca::sparse
