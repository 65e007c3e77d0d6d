#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/layer_compiler.hpp"
#include "core/perf_model.hpp"
#include "nn/sparse_conv.hpp"
#include "nn/unet.hpp"
#include "obs/metrics.hpp"
#include "quant/qconv.hpp"
#include "runtime/esca_backend.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Fixture {
  quant::QuantizedConv layer;
  quant::QSparseTensor input;
  sparse::LayerGeometryPtr geometry;  ///< the input's submanifold geometry
};

Fixture make_fixture(int cin, int cout, Rng& rng, Coord3 extent = {24, 24, 24},
                     int points = 300) {
  const auto x = test::clustered_tensor(extent, cin, rng, extent.x / 3, points);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, 3);
  conv.init_kaiming(rng);
  sparse::LayerGeometryPtr geometry = sparse::make_submanifold_geometry(x, 3);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x, *geometry);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  quant::QuantizedConv layer =
      quant::QuantizedConv::from_float(conv, nullptr, false, in_scale, out_scale, "acc");
  quant::QSparseTensor qx =
      quant::QSparseTensor::from_float(x, quant::QuantParams{in_scale});
  return {std::move(layer), std::move(qx), std::move(geometry)};
}

/// A copy of `geometry` whose per-offset rule lists went through `edit`.
template <typename Edit>
sparse::LayerGeometry with_rules(const sparse::LayerGeometry& geometry, Edit edit) {
  sparse::LayerGeometry tampered = geometry;
  sparse::RuleBook rules(geometry.rulebook.kernel_volume());
  for (int o = 0; o < rules.kernel_volume(); ++o) {
    std::vector<sparse::Rule> list = geometry.rulebook.rules_for(o);
    edit(o, list);
    for (const sparse::Rule& rule : list) rules.add(o, rule);
  }
  tampered.rulebook = std::move(rules);
  return tampered;
}

constexpr int kCenterOffset = 13;  ///< (0, 0, 0) of a 3^3 kernel

TEST(AcceleratorTest, BitExactVsIntegerGold) {
  Rng rng(141);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE(trial);
    const Fixture fx = make_fixture(2 + trial, 3 + 2 * trial, rng);
    const ArchConfig cfg;
    Accelerator acc{cfg};
    const LayerRunStats st = acc.run_layer(fx.layer, *fx.geometry);
    test::expect_closed_forms(st, *fx.geometry, cfg);
  }
}

TEST(AcceleratorTest, BitExactWithWideChannels) {
  Rng rng(142);
  // Channels wider than the 16x16 array exercise the block loops.
  const Fixture fx = make_fixture(20, 24, rng, {16, 16, 16}, 150);
  const ArchConfig cfg;
  Accelerator acc{cfg};
  const LayerRunStats st = acc.run_layer(fx.layer, *fx.geometry);
  test::expect_closed_forms(st, *fx.geometry, cfg);
  EXPECT_EQ(cfg.cycles_per_match(20, 24), 4);
}

TEST(AcceleratorTest, CycleAndOpAccounting) {
  Rng rng(132);
  ArchConfig cfg;
  cfg.ic_parallel = 4;
  cfg.oc_parallel = 4;
  const Fixture fx = make_fixture(6, 5, rng, {16, 16, 16}, 120);  // 2 IC x 2 OC blocks
  Accelerator acc{cfg};
  const LayerRunStats st = acc.run_layer(fx.layer, *fx.geometry);
  test::expect_closed_forms(st, *fx.geometry, cfg);
  EXPECT_EQ(st.cc_cycles, 4 * st.sdmu.matches);
  EXPECT_EQ(st.mac_ops, 6LL * 5 * st.sdmu.matches);
}

TEST(AcceleratorTest, StatsCoherence) {
  Rng rng(143);
  const Fixture fx = make_fixture(4, 6, rng);
  Accelerator acc{ArchConfig{}};
  const LayerRunStats st = acc.run_layer(fx.layer, *fx.geometry);

  EXPECT_EQ(st.sites, static_cast<std::int64_t>(fx.input.size()));
  EXPECT_EQ(st.mac_ops, st.sdmu.matches * 4 * 6);
  EXPECT_GT(st.total_cycles, 0);
  EXPECT_GT(st.dram_bytes_in, 0);
  EXPECT_GT(st.dram_bytes_out, 0);
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_GT(st.effective_gops, 0.0);
  EXPECT_EQ(st.zero_removing.active_sites, st.sites);
  EXPECT_EQ(st.encoding.core_sites, st.sites);
  // Output traffic = sites x Cout x 2 bytes.
  EXPECT_EQ(st.dram_bytes_out, st.sites * 6 * 2);
  // Utilization is a fraction.
  const double util = st.array_utilization(ArchConfig{}.compute_parallelism());
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
}

TEST(AcceleratorTest, ZeroRemovingReducesCyclesOnSparseMaps) {
  Rng rng(144);
  // Same site count, one compact cluster: small tiles vs whole-map tiles.
  const Fixture fx = make_fixture(4, 4, rng, {48, 48, 48}, 200);

  ArchConfig with_zr;  // 8^3 tiles
  ArchConfig without_zr;
  without_zr.tile_size = {48, 48, 48};  // single tile == no removal
  without_zr.activation_buffer_bytes = 8 << 20;
  without_zr.mask_buffer_bytes = 8 << 20;

  Accelerator a{with_zr};
  Accelerator b{without_zr};
  const LayerRunStats ra = a.run_layer(fx.layer, *fx.geometry);
  const LayerRunStats rb = b.run_layer(fx.layer, *fx.geometry);
  // The strategy is lossless: both match every rule.
  test::expect_closed_forms(ra, *fx.geometry, with_zr);
  test::expect_closed_forms(rb, *fx.geometry, without_zr);
  EXPECT_LT(ra.total_cycles, rb.total_cycles);
}

TEST(AcceleratorTest, PerfModelTracksSimulator) {
  Rng rng(145);
  const Fixture fx = make_fixture(16, 16, rng, {32, 32, 32}, 500);
  const ArchConfig cfg;
  Accelerator acc{cfg};
  const LayerRunStats st = acc.run_layer(fx.layer, *fx.geometry);

  const PerfModel model(cfg);
  const PerfEstimate est =
      model.estimate_layer(st.zero_removing.active_tiles, st.sdmu.matches, 16, 16);
  // First-order model within 40 % of the cycle-accurate simulator.
  const double ratio =
      static_cast<double>(st.total_cycles) / static_cast<double>(est.total_cycles);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

TEST(AcceleratorTest, EnergyAccumulatesAcrossLayers) {
  Rng rng(146);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  (void)acc.run_layer(fx.layer, *fx.geometry);
  const double after_one = acc.energy().total_joules();
  EXPECT_GT(after_one, 0.0);
  (void)acc.run_layer(fx.layer, *fx.geometry);
  EXPECT_GT(acc.energy().total_joules(), after_one);
}

TEST(AcceleratorTest, RejectsMismatchedLayer) {
  Rng rng(147);
  const Fixture fx = make_fixture(4, 4, rng);
  ArchConfig cfg;
  cfg.kernel_size = 5;  // architecture built for K=5, layer is K=3
  Accelerator acc{cfg};
  EXPECT_THROW((void)acc.run_layer(fx.layer, *fx.geometry), InvalidArgument);
}

TEST(AcceleratorTest, RejectsGeometryItCannotRun) {
  Rng rng(150);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  const sparse::SparseTensor sites = fx.input.sites();
  // Strided layers stay on the host: the SDMU matches submanifold rules only.
  EXPECT_THROW((void)acc.run_layer(fx.layer, sparse::build_downsample_geometry(sites, 3, 2)),
               InvalidArgument);
  // A K=5 rulebook under a K=3 layer and architecture.
  EXPECT_THROW((void)acc.run_layer(fx.layer, sparse::build_submanifold_geometry(sites, 5)),
               InvalidArgument);
  // A strided layer, even over a Sub-Conv geometry of its kernel.
  const nn::SparseConv3d strided(sparse::GeometryKind::kDownsample, 4, 4, 3, 1);
  const quant::QuantizedConv strided_layer =
      quant::QuantizedConv::from_float(strided, nullptr, false, 1.0F, 1.0F, "strided");
  EXPECT_THROW((void)acc.run_layer(strided_layer, *fx.geometry), InvalidArgument);
}

// The match check replaces the output compare: the SDMU's match stream must
// be exactly the rulebook, so a rulebook that differs by one rule throws.
TEST(AcceleratorMatchCheckTest, IntactCopyPasses) {
  Rng rng(151);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  const sparse::LayerGeometry copy = with_rules(*fx.geometry, [](int, auto&) {});
  test::expect_closed_forms(acc.run_layer(fx.layer, copy), copy, acc.config());
}

TEST(AcceleratorMatchCheckTest, MissingRuleThrows) {
  Rng rng(152);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  const sparse::LayerGeometry tampered = with_rules(*fx.geometry, [](int o, auto& list) {
    if (o == kCenterOffset) list.pop_back();
  });
  ASSERT_EQ(tampered.total_rules() + 1, fx.geometry->total_rules());
  EXPECT_THROW((void)acc.run_layer(fx.layer, tampered), InternalError);
}

TEST(AcceleratorMatchCheckTest, ExtraRuleThrows) {
  Rng rng(153);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  const sparse::LayerGeometry tampered = with_rules(*fx.geometry, [](int o, auto& list) {
    if (o == kCenterOffset) list.push_back(list.front());
  });
  ASSERT_EQ(tampered.total_rules(), fx.geometry->total_rules() + 1);
  EXPECT_THROW((void)acc.run_layer(fx.layer, tampered), InternalError);
}

TEST(AcceleratorMatchCheckTest, ChangedInRowThrows) {
  Rng rng(154);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  const auto sites = static_cast<std::int32_t>(fx.input.size());
  const sparse::LayerGeometry tampered = with_rules(*fx.geometry, [sites](int o, auto& list) {
    if (o == kCenterOffset) list.front().in_row = (list.front().in_row + 1) % sites;
  });
  ASSERT_EQ(tampered.total_rules(), fx.geometry->total_rules());
  EXPECT_THROW((void)acc.run_layer(fx.layer, tampered), InternalError);
}

/// A one-layer Plan of the fixture's layer over `geometry`, with no gold
/// output: run it with verify off.
runtime::Plan one_layer_plan(const Fixture& fx, sparse::LayerGeometryPtr geometry) {
  CompiledNetwork network;
  network.layers.push_back(CompiledLayer{fx.layer, fx.input, fx.input, 0, std::move(geometry)});
  return runtime::make_plan(std::move(network));
}

// The backend keeps a geometry's tiling only once its match stream passed
// the check, so a tampered geometry throws on every frame, not just the first.
TEST(AcceleratorMatchCheckTest, BackendThrowsOnEveryFrameOfATamperedGeometry) {
  Rng rng(155);
  const Fixture fx = make_fixture(4, 4, rng);
  const runtime::Plan plan = one_layer_plan(
      fx, std::make_shared<const sparse::LayerGeometry>(
                    with_rules(*fx.geometry, [](int o, auto& list) {
                      if (o == kCenterOffset) list.pop_back();
                    })));
  runtime::EscaBackend backend{ArchConfig{}};
  EXPECT_THROW((void)backend.run_frame(plan, "f0", {.verify = false}), InternalError);
  EXPECT_THROW((void)backend.run_frame(plan, "f1", {.verify = false}), InternalError);
}

// A Plan's tiled geometries serve all its frames and are dropped when another
// Plan runs.
TEST(EscaBackendTest, TiledGeometriesLastWhileTheirPlanRuns) {
  Rng rng(156);
  const Fixture fx = make_fixture(4, 4, rng);
  const runtime::Plan a = one_layer_plan(fx, fx.geometry);
  const runtime::Plan b = one_layer_plan(fx, fx.geometry);
  runtime::EscaBackend backend{ArchConfig{}};
  const auto tiled = [] {
    return obs::Registry::global().find_counter("esca_sim_tiled_geometries_total")->value();
  };
  const runtime::FrameReport first = backend.run_frame(a, "a0", {.verify = false});
  const std::int64_t before = tiled();
  const runtime::FrameReport second = backend.run_frame(a, "a1", {.verify = false});
  EXPECT_EQ(tiled(), before);
  EXPECT_EQ(second.stats.total_cycles(), first.stats.total_cycles());
  (void)backend.run_frame(b, "b0", {.verify = false});
  EXPECT_EQ(tiled(), before + 1);
  (void)backend.run_frame(a, "a2", {.verify = false});
  EXPECT_EQ(tiled(), before + 2);
}

TEST(LayerCompilerTest, CompilesAllSubConvLayers) {
  Rng rng(148);
  const auto x = test::clustered_tensor({24, 24, 24}, 1, rng, 7, 250);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 9);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);

  const CompiledNetwork compiled = LayerCompiler::compile(trace);
  EXPECT_EQ(compiled.layers.size(), nn::subconv_entries(trace).size());
  EXPECT_GT(compiled.total_macs(), 0);
  for (const auto& cl : compiled.layers) {
    EXPECT_EQ(cl.gold_output.size(), cl.input.size());
    EXPECT_GT(cl.gold_macs, 0);
  }
}

}  // namespace
}  // namespace esca::core
