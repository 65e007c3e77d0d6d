// runtime::Engine/Session tests: backend parity (every backend's outputs,
// computed by its ComputeEngine, are bit-exact vs. the CPU backend's on the
// same Plan), batched weight-residency caching, and the Engine/Backend
// plumbing.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "nn/sparse_conv.hpp"
#include "nn/unet.hpp"
#include "runtime/engine.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca::runtime {
namespace {

/// A small compiled U-Net trace (2 levels, 4 base planes).
Plan small_unet_plan(const Engine& engine, std::uint64_t seed = 21) {
  Rng rng(211);
  const auto x = test::clustered_tensor({20, 20, 20}, 1, rng, 6, 150);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, seed);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);
  return engine.compile(trace);
}

TEST(RuntimeParityTest, EscaOutputsBitExactVsCpuBackend) {
  Engine esca_engine;  // default = ESCA simulator
  RuntimeConfig cpu_cfg;
  cpu_cfg.backend = BackendKind::kCpu;
  Engine cpu_engine{cpu_cfg};

  // One Plan runs on both backends: Plans are backend-agnostic.
  const Plan plan = small_unet_plan(esca_engine);
  ASSERT_GT(plan.layer_count(), 0U);

  const RunOptions keep{.verify = true, .keep_outputs = true};
  const RunReport esca_report = esca_engine.run(plan, {}, keep);
  const RunReport cpu_report = cpu_engine.run(plan, {}, keep);

  ASSERT_EQ(esca_report.frames.size(), 1U);
  ASSERT_EQ(cpu_report.frames.size(), 1U);
  const auto& esca_outputs = esca_report.frames.front().outputs;
  const auto& cpu_outputs = cpu_report.frames.front().outputs;
  ASSERT_EQ(esca_outputs.size(), plan.layer_count());
  ASSERT_EQ(cpu_outputs.size(), plan.layer_count());
  for (std::size_t i = 0; i < esca_outputs.size(); ++i) {
    EXPECT_TRUE(esca_outputs[i] == cpu_outputs[i])
        << "layer " << plan.network.layers[i].layer.name();
  }
}

TEST(RuntimeGeometryCacheTest, FramesReplayPlanCachedGeometryOnEveryBackend) {
  // Geometry is compiled into the Plan exactly like weight residency:
  // compile() builds it once, and no frame on any backend triggers another
  // geometry build. Parity between the ESCA simulator and the CPU gold
  // path must hold while replaying the cached geometry.
  Engine esca_engine;
  const Plan plan = small_unet_plan(esca_engine);
  for (const core::CompiledLayer& cl : plan.network.layers) {
    ASSERT_NE(cl.geometry, nullptr);
    EXPECT_EQ(cl.geometry->sites.size(), cl.input.size());
  }

  const RunOptions keep{.verify = true, .keep_outputs = true};
  std::vector<quant::QSparseTensor> esca_outputs;
  std::vector<quant::QSparseTensor> cpu_outputs;

  const obs::CounterGuard builds(sparse::geometry_builds_counter());
  for (const auto kind : {BackendKind::kEsca, BackendKind::kCpu}) {
    RuntimeConfig cfg;
    cfg.backend = kind;
    Engine engine{cfg};
    const RunReport report = engine.run(plan, FrameBatch::replay(2), keep);
    ASSERT_EQ(report.frames.size(), 2U);
    if (kind == BackendKind::kEsca) esca_outputs = report.frames[1].outputs;
    if (kind == BackendKind::kCpu) cpu_outputs = report.frames[1].outputs;
  }
  // Two frames on each of the two backends: zero geometry rebuilds.
  EXPECT_EQ(builds.delta(), 0);

  ASSERT_EQ(esca_outputs.size(), plan.layer_count());
  ASSERT_EQ(cpu_outputs.size(), plan.layer_count());
  for (std::size_t i = 0; i < esca_outputs.size(); ++i) {
    EXPECT_TRUE(esca_outputs[i] == cpu_outputs[i])
        << "layer " << plan.network.layers[i].layer.name();
  }
}

TEST(RuntimeSessionTest, WeightDramChargedOnlyOnFirstFrame) {
  Engine engine;
  Session session = engine.open_session(small_unet_plan(engine));
  const Plan& plan = session.plan();

  EXPECT_FALSE(session.weights_resident());
  const RunReport report = session.submit(FrameBatch::replay(2));
  ASSERT_EQ(report.frames.size(), 2U);
  EXPECT_FALSE(report.frames[0].weights_resident);
  EXPECT_TRUE(report.frames[1].weights_resident);
  EXPECT_EQ(report.frames[0].dram_bytes_in() - report.frames[1].dram_bytes_in(),
            plan.weight_bytes());

  // Residency survives across submit() calls: a later batch is still free
  // of weight traffic.
  EXPECT_TRUE(session.weights_resident());
  const RunReport later = session.submit(FrameBatch::single("late"));
  EXPECT_TRUE(later.frames.front().weights_resident);
  EXPECT_EQ(later.frames.front().dram_bytes_in(), report.frames[1].dram_bytes_in());

  // Invalidation makes the next frame pay the weight transfer again.
  session.invalidate_weights();
  EXPECT_FALSE(session.weights_resident());
  const RunReport repaid = session.submit(FrameBatch::single("repaid"));
  EXPECT_FALSE(repaid.frames.front().weights_resident);
  EXPECT_EQ(repaid.frames.front().dram_bytes_in(), report.frames[0].dram_bytes_in());

  EXPECT_EQ(session.frames_submitted(), 4U);
}

TEST(RuntimeSessionTest, RunningAnotherPlanDropsResidency) {
  Engine engine;
  const Plan plan_a = small_unet_plan(engine, 21);
  const Plan plan_b = small_unet_plan(engine, 22);

  Session session_a = engine.open_session(plan_a);
  (void)session_a.submit(FrameBatch::single());
  EXPECT_TRUE(session_a.weights_resident());

  // Another plan on the same device evicts A's weights.
  Session session_b = engine.open_session(plan_b);
  (void)session_b.submit(FrameBatch::single());
  EXPECT_TRUE(session_b.weights_resident());
  EXPECT_FALSE(session_a.weights_resident());
}

TEST(RuntimeSessionTest, EngineRunIsOneShotAndResetsResidency) {
  Engine engine;
  const Plan plan = small_unet_plan(engine);
  const RunReport first = engine.run(plan, FrameBatch::replay(2));
  const RunReport second = engine.run(plan, FrameBatch::replay(2));
  // Both runs pay the weight DRAM on their first frame.
  EXPECT_FALSE(second.frames[0].weights_resident);
  EXPECT_EQ(first.frames[0].dram_bytes_in(), second.frames[0].dram_bytes_in());
  EXPECT_GT(first.frames[0].dram_bytes_in(), first.frames[1].dram_bytes_in());
}

TEST(RuntimeReportTest, MergedStatsConcatenateAllFrames) {
  Engine engine;
  const Plan plan = small_unet_plan(engine);
  const RunReport report = engine.run(plan, FrameBatch::replay(3), {.verify = false});
  EXPECT_EQ(report.merged_stats().layers.size(), plan.layer_count() * 3);
  EXPECT_GT(report.total_cycles(), 0);
  EXPECT_GT(report.total_seconds(), 0.0);
  EXPECT_GT(report.effective_gops(), 0.0);
  EXPECT_EQ(report.total_mac_ops(), 3 * plan.total_macs());
}

TEST(RuntimeReportTest, MemorySummaryAggregatesAcrossFramesAndLayers) {
  Engine engine;
  const Plan plan = small_unet_plan(engine);
  const RunReport report = engine.run(plan, FrameBatch::replay(2), {.verify = false});
  ASSERT_EQ(report.frames.size(), 2U);

  // Per-frame summaries sum each layer's counters exactly.
  for (const FrameReport& frame : report.frames) {
    const core::MemorySummary mem = frame.memory_summary();
    std::int64_t in = 0;
    std::int64_t out = 0;
    std::int64_t bank_stalls = 0;
    int verdicts = 0;
    for (const core::LayerRunStats& l : frame.stats.layers) {
      in += l.dram_bytes_in;
      out += l.dram_bytes_out;
      bank_stalls += l.buffer_sim.bank_conflict_stalls;
      ++verdicts;
    }
    EXPECT_EQ(mem.dram_bytes_in, in);
    EXPECT_EQ(mem.dram_bytes_out, out);
    EXPECT_EQ(mem.bank_conflict_stalls, bank_stalls);
    EXPECT_EQ(mem.memory_bound_layers + mem.compute_bound_layers, verdicts);
    EXPECT_EQ(mem.dram_bytes_in, frame.dram_bytes_in());
    EXPECT_GT(mem.dram_bursts, 0);
    EXPECT_GT(mem.sram_read_bytes, 0);
    EXPECT_GT(mem.sram_write_bytes, 0);
  }

  // The run-level summary is the merge of the frames; the sim::Fifo
  // occupancy stats promoted from the SDMU ride along.
  const core::MemorySummary total = report.memory_summary();
  const core::MemorySummary f0 = report.frames[0].memory_summary();
  const core::MemorySummary f1 = report.frames[1].memory_summary();
  EXPECT_EQ(total.dram_bytes_in, f0.dram_bytes_in + f1.dram_bytes_in);
  EXPECT_EQ(total.dram_bytes_out, f0.dram_bytes_out + f1.dram_bytes_out);
  EXPECT_EQ(total.dram_bursts, f0.dram_bursts + f1.dram_bursts);
  EXPECT_EQ(total.sdmu_fifo_high_water,
            std::max(f0.sdmu_fifo_high_water, f1.sdmu_fifo_high_water));
  EXPECT_EQ(total.buffer_fifo_high_water,
            std::max(f0.buffer_fifo_high_water, f1.buffer_fifo_high_water));
  EXPECT_GT(total.sdmu_fifo_high_water, 0U);
  // Frame 0 pays the weight transfer, frame 1 runs weights-resident.
  EXPECT_GT(f0.dram_bytes_in, f1.dram_bytes_in);
  EXPECT_EQ(f0.dram_bytes_out, f1.dram_bytes_out);
}

TEST(RuntimeConfigTest, BackendKindParsesAndRoundTrips) {
  EXPECT_EQ(parse_backend_kind("esca"), BackendKind::kEsca);
  EXPECT_EQ(parse_backend_kind("cpu"), BackendKind::kCpu);
  for (const auto kind : {BackendKind::kEsca, BackendKind::kCpu}) {
    EXPECT_EQ(parse_backend_kind(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_backend_kind("dense"), InvalidArgument);
  EXPECT_THROW((void)parse_backend_kind("tpu"), InvalidArgument);
}

TEST(RuntimeConfigTest, FactoryBuildsTheRequestedBackend) {
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kCpu;
  EXPECT_EQ(make_backend(cfg)->name(), "cpu");
  cfg.backend = BackendKind::kEsca;
  EXPECT_EQ(make_backend(cfg)->name(), "esca");
}

TEST(RuntimeValidationTest, EmptyBatchAndEmptyPlanRejected) {
  Engine engine;
  EXPECT_THROW((void)FrameBatch::replay(0), InvalidArgument);
  EXPECT_THROW((void)engine.open_session(Plan{}), InvalidArgument);
  const Plan plan = small_unet_plan(engine);
  EXPECT_THROW((void)engine.run(plan, FrameBatch{.frame_ids = {}}), InvalidArgument);
}

TEST(RuntimeValidationTest, PlanLayerWithoutGeometryRejected) {
  Engine engine;
  core::CompiledNetwork network = small_unet_plan(engine).network;
  network.layers.back().geometry = nullptr;
  EXPECT_THROW((void)make_plan(std::move(network)), InvalidArgument);
}

TEST(RuntimeValidationTest, TamperedGoldIsCaughtByEveryBackend) {
  for (const auto kind : {BackendKind::kEsca, BackendKind::kCpu}) {
    RuntimeConfig cfg;
    cfg.backend = kind;
    Engine engine{cfg};
    Plan plan = small_unet_plan(engine);
    auto f = plan.network.layers.front().gold_output.features(0);
    f[0] = static_cast<std::int16_t>(f[0] + 1);
    EXPECT_THROW((void)engine.run(plan), InternalError) << to_string(kind);
  }
}

TEST(RuntimeCompileTest, SingleLayerPlanRunsOnEveryBackend) {
  Rng rng(77);
  const auto x = test::clustered_tensor({16, 16, 16}, 2, rng, 4, 80);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 4, 3);
  conv.init_kaiming(rng);

  Engine esca_engine;
  const Plan plan = esca_engine.compile_layer(conv, x, {.relu = true, .name = "single"});
  ASSERT_EQ(plan.layer_count(), 1U);
  EXPECT_GT(plan.total_macs(), 0);
  EXPECT_EQ(plan.network.layers.front().layer.name(), "single");

  for (const auto kind : {BackendKind::kEsca, BackendKind::kCpu}) {
    RuntimeConfig cfg;
    cfg.backend = kind;
    Engine engine{cfg};
    const RunReport report = engine.run(plan, {}, {.keep_outputs = true});
    EXPECT_TRUE(report.frames.front().outputs.front() ==
                plan.network.layers.front().gold_output)
        << to_string(kind);
  }
}

TEST(RuntimeBackendTest, OnlyEscaExposesAnEnergyMeter) {
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kEsca;
  EXPECT_NE(make_backend(cfg)->energy_meter(), nullptr);
  cfg.backend = BackendKind::kCpu;
  EXPECT_EQ(make_backend(cfg)->energy_meter(), nullptr);
}

}  // namespace
}  // namespace esca::runtime
