// sim/mem tests: the banked GlobalBuffer against an independently written
// scalar oracle, the MemoryTrafficModel closed form, and the end-to-end
// guarantee that the ESCA backend's per-layer DRAM bytes reproduce the
// closed form exactly.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/perf_model.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/unet.hpp"
#include "runtime/engine.hpp"
#include "runtime/esca_backend.hpp"
#include "sim/mem/dataflow.hpp"
#include "sim/mem/global_buffer.hpp"
#include "sim/mem/traffic_model.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::sim::mem {
namespace {

// ---------------------------------------------------------------------------
// GlobalBuffer vs. a naive scalar re-implementation of the documented
// two-phase cycle semantics (plain deques, no sim::Fifo).
// ---------------------------------------------------------------------------

BufferSimStats oracle_simulate(const GlobalBufferConfig& cfg,
                               const std::vector<BufferAccess>& accesses) {
  BufferSimStats st;
  st.requests = static_cast<std::int64_t>(accesses.size());
  if (accesses.empty()) return st;

  std::vector<std::deque<bool>> queues(static_cast<std::size_t>(cfg.banks));
  std::size_t next = 0;
  while (st.serviced < st.requests) {
    const std::int64_t cycle = st.cycles++;

    int reads_left = cfg.read_ports;
    int writes_left = cfg.write_ports;
    for (int i = 0; i < cfg.banks; ++i) {
      auto& q = queues[static_cast<std::size_t>((cycle + i) % cfg.banks)];
      if (q.empty()) continue;
      int& left = q.front() ? writes_left : reads_left;
      if (left == 0) {
        ++st.port_stalls;
        continue;
      }
      --left;
      q.pop_front();
      ++st.serviced;
    }

    std::size_t issued = 0;
    const auto width = static_cast<std::size_t>(cfg.read_ports + cfg.write_ports);
    while (next < accesses.size() && issued < width) {
      const std::int64_t tw = cfg.total_words();
      const std::int64_t addr = ((accesses[next].word_addr % tw) + tw) % tw;
      auto& q = queues[static_cast<std::size_t>(addr % cfg.banks)];
      if (q.size() >= cfg.fifo_depth) {
        ++st.bank_conflict_stalls;
        break;
      }
      q.push_back(accesses[next].is_write);
      st.fifo_high_water = std::max(st.fifo_high_water, q.size());
      ++next;
      ++issued;
    }
  }
  return st;
}

void expect_stats_equal(const BufferSimStats& a, const BufferSimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.serviced, b.serviced);
  EXPECT_EQ(a.bank_conflict_stalls, b.bank_conflict_stalls);
  EXPECT_EQ(a.port_stalls, b.port_stalls);
  EXPECT_EQ(a.fifo_high_water, b.fifo_high_water);
}

TEST(GlobalBufferTest, MatchesOracleOnRandomStreams) {
  Rng rng(4201);
  for (int trial = 0; trial < 50; ++trial) {
    GlobalBufferConfig cfg;
    cfg.banks = static_cast<int>(rng.uniform_int(1, 12));
    cfg.depth_words = rng.uniform_int(1, 64);
    cfg.read_ports = static_cast<int>(rng.uniform_int(1, 4));
    cfg.write_ports = static_cast<int>(rng.uniform_int(1, 3));
    cfg.fifo_depth = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const GlobalBuffer buffer(cfg);

    std::vector<BufferAccess> accesses;
    const std::int64_t n = rng.uniform_int(0, 400);
    accesses.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      // Mix of conflict-heavy (same bank) and spread-out addresses, plus
      // out-of-range ones to exercise the modulo wrap.
      const std::int64_t addr = rng.uniform_int(0, 10) < 3
                                    ? cfg.banks * rng.uniform_int(0, 4)
                                    : rng.uniform_int(-1000, 1000);
      accesses.push_back({addr, rng.uniform_int(0, 3) == 0});
    }

    expect_stats_equal(buffer.simulate(accesses), oracle_simulate(cfg, accesses));
  }
}

TEST(GlobalBufferTest, EmptyStreamTakesZeroCycles) {
  const GlobalBuffer buffer(GlobalBufferConfig{}.resolved(1024));
  const BufferSimStats st = buffer.simulate({});
  EXPECT_EQ(st.cycles, 0);
  EXPECT_EQ(st.requests, 0);
  EXPECT_EQ(st.serviced, 0);
  EXPECT_DOUBLE_EQ(st.utilization(), 0.0);
}

TEST(GlobalBufferTest, SingleBankSerializesConflictingReads) {
  GlobalBufferConfig cfg;
  cfg.banks = 1;
  cfg.depth_words = 64;
  cfg.read_ports = 4;
  cfg.write_ports = 1;
  const GlobalBuffer buffer(cfg);

  std::vector<BufferAccess> reads(32);
  for (std::size_t i = 0; i < reads.size(); ++i) reads[i] = {static_cast<std::int64_t>(i), false};
  const BufferSimStats st = buffer.simulate(reads);
  // One bank retires at most one request per cycle regardless of ports, and
  // requests become serviceable the cycle after they are issued.
  EXPECT_GE(st.cycles, static_cast<std::int64_t>(reads.size()) + 1);
  EXPECT_EQ(st.serviced, static_cast<std::int64_t>(reads.size()));
}

TEST(GlobalBufferTest, PortsCoveringEveryBankPipelineConflictFreeStream) {
  GlobalBufferConfig cfg;
  cfg.banks = 4;
  cfg.depth_words = 16;
  cfg.read_ports = 4;  // ports >= banks: service is bank-limited only
  cfg.write_ports = 4;
  cfg.fifo_depth = 8;
  const GlobalBuffer buffer(cfg);

  // Stride-1 stream touches banks round-robin: 8 full waves of 4.
  std::vector<BufferAccess> accesses(32);
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    accesses[i] = {static_cast<std::int64_t>(i), false};
  }
  const BufferSimStats st = buffer.simulate(accesses);
  EXPECT_EQ(st.port_stalls, 0);
  EXPECT_EQ(st.bank_conflict_stalls, 0);
  // Issue width is reads+writes = 8/cycle, service 4/cycle => service-bound:
  // 32 requests at 4/cycle plus the 1-cycle issue->service pipeline.
  EXPECT_EQ(st.cycles, 9);
  EXPECT_DOUBLE_EQ(st.utilization(), 32.0 / 9.0);
}

TEST(GlobalBufferTest, ValidationRejectsDegenerateGeometry) {
  GlobalBufferConfig cfg;
  cfg.depth_words = 8;
  cfg.banks = 0;
  EXPECT_THROW(GlobalBuffer{cfg}, InvalidArgument);
  cfg.banks = 4;
  cfg.read_ports = 0;
  EXPECT_THROW(GlobalBuffer{cfg}, InvalidArgument);
  cfg.read_ports = 2;
  cfg.write_ports = 0;
  EXPECT_THROW(GlobalBuffer{cfg}, InvalidArgument);
  cfg.write_ports = 1;
  cfg.fifo_depth = 0;
  EXPECT_THROW(GlobalBuffer{cfg}, InvalidArgument);
  cfg.fifo_depth = 4;
  cfg.word_bytes = 0;
  EXPECT_THROW(GlobalBuffer{cfg}, InvalidArgument);
}

TEST(GlobalBufferTest, ResolvedDerivesDepthFromCapacity) {
  GlobalBufferConfig cfg;  // banks=8, word_bytes=32, depth unset
  const GlobalBufferConfig r = cfg.resolved(256 * 1024);
  EXPECT_EQ(r.depth_words, 256 * 1024 / (8 * 32));
  EXPECT_EQ(r.capacity_bytes(), 256 * 1024);
  // An explicit depth is left alone.
  cfg.depth_words = 7;
  EXPECT_EQ(cfg.resolved(256 * 1024).depth_words, 7);
}

// ---------------------------------------------------------------------------
// MemoryTrafficModel closed form.
// ---------------------------------------------------------------------------

LayerTrafficInput typical_layer() {
  LayerTrafficInput in;
  in.active_tiles = 40;
  in.mask_bytes = 40 * 64;
  in.stored_sites = 5000;
  in.core_sites = 4200;
  in.matches = 90000;
  in.in_channels = 16;
  in.out_channels = 32;
  in.weight_bytes = 27LL * 16 * 32;
  return in;
}

TEST(TrafficModelTest, ZeroByteClassesHaveZeroBursts) {
  const MemoryTrafficModel model;
  LayerTrafficInput in;  // all zeros
  const LayerTraffic t = model.layer_traffic(in);
  EXPECT_EQ(t.dram_bytes_in(), 0);
  EXPECT_EQ(t.dram_bytes_out(), 0);
  EXPECT_EQ(t.dram_bursts(), 0);
  EXPECT_DOUBLE_EQ(model.transfer_seconds(t), 0.0);
}

TEST(TrafficModelTest, WeightStationaryChunksMultiplyActivationStreams) {
  TrafficModelConfig cfg;
  LayerTrafficInput in = typical_layer();
  const MemoryTrafficModel fits(cfg);
  const LayerTraffic base = fits.layer_traffic(in);
  EXPECT_EQ(base.weight_passes, 1);
  EXPECT_EQ(base.weights.bytes, in.weight_bytes);
  EXPECT_EQ(base.weights.bursts, 1);
  EXPECT_EQ(base.inputs.bytes, in.stored_sites * 2 * in.in_channels);
  EXPECT_EQ(base.inputs.bursts, in.active_tiles);
  EXPECT_EQ(base.outputs.bytes, in.core_sites * 2 * in.out_channels);
  EXPECT_EQ(base.outputs.bursts, in.active_tiles);

  // Weight buffer a quarter of the tensor: 4 chunks, acts/masks x4.
  cfg.weight_buffer_bytes = in.weight_bytes / 4;
  const MemoryTrafficModel chunked(cfg);
  const LayerTraffic t = chunked.layer_traffic(in);
  EXPECT_EQ(t.weight_passes, 4);
  EXPECT_EQ(t.weights.bytes, in.weight_bytes);  // weights still move once
  EXPECT_EQ(t.weights.bursts, 4);
  EXPECT_EQ(t.inputs.bytes, 4 * base.inputs.bytes);
  EXPECT_EQ(t.masks.bytes, 4 * base.masks.bytes);
  EXPECT_EQ(t.inputs.bursts, 4 * in.active_tiles);
  EXPECT_EQ(t.outputs.bytes, base.outputs.bytes);  // outputs written once
}

TEST(TrafficModelTest, OutputStationaryRestreamsOversizedWeightsPerTile) {
  TrafficModelConfig cfg;
  cfg.mem.dataflow = Dataflow::kOutputStationary;
  LayerTrafficInput in = typical_layer();

  const MemoryTrafficModel fits(cfg);
  const LayerTraffic base = fits.layer_traffic(in);
  EXPECT_EQ(base.weights.bytes, in.weight_bytes);
  EXPECT_EQ(base.weights.bursts, 1);
  EXPECT_EQ(base.inputs.bytes, in.stored_sites * 2 * in.in_channels);  // one pass

  cfg.weight_buffer_bytes = in.weight_bytes / 2;  // 2 chunks, re-read per tile
  const MemoryTrafficModel spilled(cfg);
  const LayerTraffic t = spilled.layer_traffic(in);
  EXPECT_EQ(t.weights.bytes, in.weight_bytes * in.active_tiles);
  EXPECT_EQ(t.weights.bursts, 2 * in.active_tiles);
  EXPECT_EQ(t.inputs.bytes, base.inputs.bytes);  // acts still stream once
}

TEST(TrafficModelTest, ResidentWeightsSkipExactlyTheWeightBytes) {
  const MemoryTrafficModel model;
  LayerTrafficInput in = typical_layer();
  const LayerTraffic cold = model.layer_traffic(in);
  in.weights_resident = true;
  const LayerTraffic warm = model.layer_traffic(in);
  EXPECT_EQ(cold.dram_bytes_in() - warm.dram_bytes_in(), in.weight_bytes);
  EXPECT_EQ(warm.weights.bytes, 0);
  EXPECT_EQ(warm.weights.bursts, 0);
  EXPECT_EQ(cold.dram_bytes_out(), warm.dram_bytes_out());
}

TEST(TrafficModelTest, OverflowingTilesStreamTwice) {
  const MemoryTrafficModel model;
  LayerTrafficInput in = typical_layer();
  const LayerTraffic base = model.layer_traffic(in);
  in.overflow_act_sites = 1000;
  in.overflow_mask_bytes = 128;
  const LayerTraffic spilled = model.layer_traffic(in);
  EXPECT_EQ(spilled.inputs.bytes - base.inputs.bytes, 1000 * 2 * in.in_channels);
  EXPECT_EQ(spilled.masks.bytes - base.masks.bytes, 128);
}

TEST(TrafficModelTest, BurstsPayFirstWordLatency) {
  const MemoryTrafficModel model;
  const LayerTraffic t = model.layer_traffic(typical_layer());
  const double latency = model.config().dram.first_word_latency_s;
  const double stream_only =
      static_cast<double>(t.dram_bytes_in() + t.dram_bytes_out()) /
      model.dram().effective_bandwidth();
  EXPECT_NEAR(model.transfer_seconds(t),
              stream_only + static_cast<double>(t.dram_bursts()) * latency, 1e-15);
  EXPECT_GT(t.dram_bursts(), 2);  // tile-granular, not one burst per direction
}

TEST(TrafficModelTest, RooflineVerdictFlipsWithBufferCapacity) {
  // Same layer, same DRAM: starving the weight buffer multiplies the
  // activation traffic until DRAM time overtakes a fixed compute time.
  LayerTrafficInput in = typical_layer();
  TrafficModelConfig cfg;
  const MemoryTrafficModel ample(cfg);
  cfg.weight_buffer_bytes = 16;  // 864 chunks
  const MemoryTrafficModel starved(cfg);

  const double compute_seconds = 1e-4;
  EXPECT_LT(ample.transfer_seconds(ample.layer_traffic(in)), compute_seconds);
  EXPECT_GT(starved.transfer_seconds(starved.layer_traffic(in)), compute_seconds);
}

TEST(TrafficModelTest, RejectsNegativeInputs) {
  const MemoryTrafficModel model;
  LayerTrafficInput in = typical_layer();
  in.matches = -1;
  EXPECT_THROW(model.layer_traffic(in), InvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end: the ESCA backend's reported DRAM bytes reproduce the closed
// form exactly on the SS U-Net integration network, for both dataflows.
// ---------------------------------------------------------------------------

sparse::SparseTensor integration_tensor() {
  datasets::ShapeNetLikeConfig dcfg;
  dcfg.samples_per_object = 1200;
  const datasets::ShapeNetLikeDataset ds(dcfg, 2026);
  const voxel::VoxelGrid grid = voxel::voxelize(ds.sample(1), {.resolution = 48});
  return sparse::SparseTensor::from_voxel_grid(grid, 1);
}

runtime::Plan integration_plan() {
  const auto input = integration_tensor();
  nn::SSUNetConfig cfg;
  cfg.base_planes = 8;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  cfg.num_classes = 6;
  const nn::SSUNet net(cfg, 77);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(input, &trace);
  return runtime::make_plan(core::LayerCompiler::compile(trace));
}

void check_backend_matches_closed_form(core::ArchConfig arch) {
  runtime::EscaBackend backend(arch);
  const runtime::Plan plan = integration_plan();
  const runtime::RunReport report =
      backend.run(plan, runtime::FrameBatch::replay(2), {.verify = false});

  const MemoryTrafficModel model(arch.traffic_model_config());
  ASSERT_EQ(report.frames.size(), 2U);
  EXPECT_FALSE(report.frames[0].weights_resident);
  EXPECT_TRUE(report.frames[1].weights_resident);
  for (const runtime::FrameReport& frame : report.frames) {
    for (const core::LayerRunStats& l : frame.stats.layers) {
      EXPECT_EQ(l.traffic_input.weights_resident, frame.weights_resident) << l.layer_name;
      const LayerTraffic t = model.layer_traffic(l.traffic_input);
      EXPECT_EQ(t.dram_bytes_in(), l.dram_bytes_in) << l.layer_name;
      EXPECT_EQ(t.dram_bytes_out(), l.dram_bytes_out) << l.layer_name;
      EXPECT_EQ(t.dram_bursts(), l.traffic.dram_bursts()) << l.layer_name;
      EXPECT_EQ(t.sram_read_bytes, l.traffic.sram_read_bytes) << l.layer_name;
      EXPECT_EQ(t.sram_write_bytes, l.traffic.sram_write_bytes) << l.layer_name;
    }
  }
}

TEST(MemIntegrationTest, BackendBytesMatchClosedFormWeightStationary) {
  check_backend_matches_closed_form(core::ArchConfig{});
}

TEST(MemIntegrationTest, BackendBytesMatchClosedFormOutputStationary) {
  core::ArchConfig arch;
  arch.mem.dataflow = Dataflow::kOutputStationary;
  check_backend_matches_closed_form(arch);
}

TEST(MemIntegrationTest, BackendBytesMatchClosedFormStarvedBuffers) {
  core::ArchConfig arch;
  arch.activation_buffer_bytes = 1024;
  arch.weight_buffer_bytes = 512;
  arch.mask_buffer_bytes = 64;
  check_backend_matches_closed_form(arch);
}

TEST(MemIntegrationTest, BufferSimulationTogglesWithConfig) {
  core::ArchConfig arch;
  arch.mem.simulate_buffer = false;
  runtime::EscaBackend backend(arch);
  const runtime::Plan plan = integration_plan();
  const runtime::RunReport off = backend.run(plan, {}, {.verify = false});
  EXPECT_EQ(off.memory_summary().bank_conflict_stalls, 0);
  EXPECT_EQ(off.memory_summary().port_stalls, 0);

  arch.mem.simulate_buffer = true;
  arch.mem.buffer.banks = 1;  // worst case: everything conflicts
  runtime::EscaBackend on(arch);
  const runtime::RunReport report = on.run(plan, {}, {.verify = false});
  const core::MemorySummary mem = report.memory_summary();
  EXPECT_GT(mem.bank_conflict_stalls, 0);
  EXPECT_GT(mem.buffer_fifo_high_water, 0U);
  // Bank stalls are reported, never folded into cycle time.
  EXPECT_EQ(report.total_cycles(), off.total_cycles());
}

}  // namespace
}  // namespace esca::sim::mem
