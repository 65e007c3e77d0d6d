// Exact counts of the five measurement benches, asserted at their CI sizes.
//
// Each test drives the library with the bench's smoke arguments, seeds and
// bench_util.hpp builders, replays the bench's call sequence (verification
// pass plus one timed repeat) so registry-counter deltas are the bench
// process's totals, and compares every count with the value the bench
// prints. The counts are deterministic at any ESCA_THREADS: a mismatch is a
// behaviour change in rule matching, the memory model, stream patching or
// serving, never noise. Wall-clock time is measured by benchmark/ instead.
// StableCountsTest.Simulator pins the cycle simulator's per-layer counts the
// same way, and StableCountsTest.ZeroRemoving the Table I bench's tiles.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/zero_removing.hpp"
#include "nn/sparse_conv.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "runtime/esca_backend.hpp"
#include "serve/serve.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "sparse/testing/reference.hpp"
#include "sparse/testing/rulebook_oracle.hpp"
#include "stream/stream.hpp"

namespace esca {
namespace {

/// A process-wide registry counter by name; 0 before its first registration.
std::int64_t global_counter(const std::string& name) {
  const obs::Counter* counter = obs::Registry::global().find_counter(name);
  return counter == nullptr ? 0 : counter->value();
}

// bench_rulebook_build resolution=48 samples=1 repeats=1
TEST(StableCountsTest, RulebookBuild) {
  struct Workload {
    const char* name;
    sparse::SparseTensor tensor;
    std::size_t sites;
    std::int64_t sub_k3_rules;
    std::int64_t down_k2s2_rules;
  };
  const Workload workloads[] = {
      {"shapenet0", bench::shapenet_tensor(0, 48), 92, 1010, 92},
      {"nyu0", bench::nyu_tensor(0, 48), 108, 922, 108},
  };

  const obs::CounterGuard builds(sparse::geometry_builds_counter());
  for (const Workload& w : workloads) {
    SCOPED_TRACE(w.name);
    EXPECT_EQ(w.tensor.size(), w.sites);
    EXPECT_EQ(sparse::oracle::submanifold(w.tensor, 3).total_rules(), w.sub_k3_rules);
    EXPECT_EQ(sparse::oracle::strided(w.tensor, 2, 2).rulebook.total_rules(),
              w.down_k2s2_rules);
    for (const int shards : {1, 2, 4}) {
      const sparse::GeometryOptions opts{.shards = shards};
      EXPECT_EQ(sparse::build_submanifold_geometry(w.tensor, 3, opts).total_rules(),
                w.sub_k3_rules)
          << "shards=" << shards;
      EXPECT_EQ(sparse::build_downsample_geometry(w.tensor, 2, 2, opts).total_rules(),
                w.down_k2s2_rules)
          << "shards=" << shards;
    }
  }
  EXPECT_EQ(builds.delta(), 12);  // esca_geometry_builds_total
}

// bench_rulebook_apply resolution=64 repeats=1
TEST(StableCountsTest, RulebookApply) {
  const obs::CounterGuard builds(sparse::geometry_builds_counter());
  const sparse::SparseTensor shape = bench::shapenet_tensor(0, 64);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(shape, 3);
  // The bench prints this one geometry's count in all eight dtype x C rows.
  EXPECT_EQ(geometry.total_rules(), 2720);

  // The reference and the engine at every C and thread count must not
  // build geometry.
  Rng rng(bench::kSeed);
  for (const int c : {16, 32, 64, 128}) {
    sparse::SparseTensor x = shape.zeros_like(c);
    for (float& v : x.raw_features()) v = rng.uniform_f(-1, 1);
    std::vector<float> w(static_cast<std::size_t>(27) * c * c);
    for (float& v : w) v = rng.uniform_f(-0.1F, 0.1F);
    sparse::SparseTensor out = shape.zeros_like(c);
    std::vector<std::int16_t> qx(shape.size() * static_cast<std::size_t>(c));
    for (auto& v : qx) v = static_cast<std::int16_t>(rng.uniform_int(-32767, 32767));
    std::vector<std::int8_t> qw(static_cast<std::size_t>(27) * c * c);
    for (auto& v : qw) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    sparse::oracle::apply_rulebook_reference(x, geometry.rulebook, w, out);
    for (const int threads : {1, 2, 4}) {
      sparse::ComputeEngine engine{sparse::ComputeOptions{.threads = threads}};
      engine.apply(x, geometry.blocked, w, out);
      (void)engine.accumulate(qx, c, geometry.blocked, qw, c);
    }
  }
  EXPECT_EQ(builds.delta(), 1);  // esca_geometry_builds_total
}

// bench_stream_geometry smoke=1 resolution=64 frames=3 repeats=1
TEST(StableCountsTest, StreamGeometry) {
  struct Overlap {
    int overlap_pct;
    std::size_t sites;             ///< mean over the frames past the first
    const char* measured_overlap;  ///< mean FrameDelta overlap, 4 decimals
  };
  const Overlap overlaps[] = {{50, 380, "0.7642"}, {80, 302, "0.7619"}, {95, 226, "0.8665"}};
  const int thread_sweep[] = {1, 2};

  const obs::CounterGuard patches(stream::stream_geometry_patches_counter());
  const obs::CounterGuard rebuilds(stream::stream_geometry_rebuilds_counter());
  for (const Overlap& o : overlaps) {
    SCOPED_TRACE(str::format("overlap %d%%", o.overlap_pct));
    const std::vector<sparse::SparseTensor> frames =
        bench::voxelized_sequence(o.overlap_pct, 64, 3);
    const std::size_t steady = frames.size() - 1;

    std::size_t sites = 0;
    double overlap = 0.0;
    for (std::size_t t = 1; t < frames.size(); ++t) {
      sites += frames[t].size();
      overlap += stream::diff_frames(frames[t - 1], frames[t]).overlap_fraction();
    }
    EXPECT_EQ(sites / steady, o.sites);
    EXPECT_EQ(str::format("%.4f", overlap / static_cast<double>(steady)), o.measured_overlap);

    // Verification pass: every frame past the first patches, at every
    // thread count, into the single-thread cold build's geometry.
    for (const int threads : thread_sweep) {
      stream::IncrementalGeometry inc({.kernel_size = 3, .geometry = {.shards = threads}});
      (void)inc.update(frames[0]);
      int patched = 0;
      int fallbacks = 0;
      for (std::size_t t = 1; t < frames.size(); ++t) {
        const stream::GeometryUpdate upd = inc.update(frames[t]);
        EXPECT_TRUE(sparse::geometry_equal(
            *upd.geometry, sparse::build_submanifold_geometry(frames[t], 3, {.shards = 1})));
        (upd.patched ? patched : fallbacks) += 1;
      }
      EXPECT_EQ(patched, 2) << "threads=" << threads;
      EXPECT_EQ(fallbacks, 0) << "threads=" << threads;
    }

    // One timed repeat: cold builds, then a fresh incremental pass per
    // thread count whose frame 0 cold-builds.
    for (std::size_t t = 1; t < frames.size(); ++t) {
      (void)sparse::build_submanifold_geometry(frames[t], 3, {.shards = 1});
    }
    for (const int threads : thread_sweep) {
      stream::IncrementalGeometry inc({.kernel_size = 3, .geometry = {.shards = threads}});
      for (const sparse::SparseTensor& frame : frames) (void)inc.update(frame);
    }
  }
  EXPECT_EQ(patches.delta(), 24);   // esca_stream_geometry_patches_total
  EXPECT_EQ(rebuilds.delta(), 12);  // esca_stream_geometry_rebuilds_total
}

// bench_table1_zero_removing samples=8 resolution=192: the active tiles
// summed over each dataset's 8 samples per tile size (the bench prints
// their mean), and the sites those samples voxelize to.
TEST(StableCountsTest, ZeroRemoving) {
  struct Dataset {
    const char* name;
    sparse::SparseTensor (*tensor)(std::size_t, int);
    std::int64_t sites;
    std::array<std::int64_t, 4> active;  ///< tile sizes 4, 8, 12, 16
  };
  const Dataset datasets[] = {
      {"ShapeNet-like", bench::shapenet_tensor, 15724, {1177, 360, 181, 135}},
      {"NYU-like", bench::nyu_tensor, 7594, {796, 273, 166, 94}},
  };
  constexpr std::array<std::int32_t, 4> kTileSizes = {4, 8, 12, 16};
  constexpr std::array<std::int64_t, 4> kAllTiles = {110592, 13824, 4096, 1728};
  for (const Dataset& d : datasets) {
    SCOPED_TRACE(d.name);
    std::int64_t sites = 0;
    std::array<std::int64_t, 4> active{};
    for (std::size_t i = 0; i < 8; ++i) {
      const sparse::SparseTensor t = d.tensor(i, bench::kPaperResolution);
      sites += static_cast<std::int64_t>(t.size());
      for (std::size_t s = 0; s < kTileSizes.size(); ++s) {
        const std::int32_t size = kTileSizes[s];
        core::ZeroRemovingStats stats;
        (void)core::ZeroRemoving({size, size, size}).apply(t, &stats);
        active[s] += stats.active_tiles;
        EXPECT_EQ(stats.total_tiles, kAllTiles[s]) << "tile size " << size;
      }
    }
    EXPECT_EQ(sites, d.sites);
    EXPECT_EQ(active, d.active);
  }
}

// bench_mem_hierarchy smoke=1 resolution=48 frames=2
TEST(StableCountsTest, MemHierarchy) {
  struct Point {
    bench::SweepPoint sweep;
    std::int64_t dram_bytes;
    std::int64_t dram_bursts;
    std::int64_t sram_read_bytes;
    std::int64_t sram_write_bytes;
    std::int64_t bank_conflict_stalls;
    std::int64_t port_stalls;
    int memory_bound_layers;
    int compute_bound_layers;
  };
  constexpr auto kWs = sim::mem::Dataflow::kWeightStationary;
  constexpr auto kOs = sim::mem::Dataflow::kOutputStationary;
  const Point points[] = {
      {{1.0 / 256.0, 1, kWs}, 3042178, 2183, 9289050, 3042178, 15014, 0, 12, 10},
      {{1.0 / 256.0, 16, kWs}, 3042178, 2183, 9289050, 3042178, 1914, 41436, 12, 10},
      {{1.0, 1, kWs}, 444870, 245, 9179550, 444870, 15014, 0, 0, 22},
      {{1.0, 16, kWs}, 444870, 245, 9179550, 444870, 1914, 41436, 0, 22},
      {{1.0 / 256.0, 1, kOs}, 1632710, 1179, 9179550, 1632710, 15014, 0, 6, 16},
      {{1.0 / 256.0, 16, kOs}, 1632710, 1179, 9179550, 1632710, 1914, 41436, 6, 16},
      {{1.0, 1, kOs}, 444870, 245, 9179550, 444870, 15014, 0, 0, 22},
      {{1.0, 16, kOs}, 444870, 245, 9179550, 444870, 1914, 41436, 0, 22},
  };

  const bench::NetworkWorkload workload =
      bench::benchmark_network(bench::shapenet_tensor(0, 48));
  const std::int64_t bank_stalls_before =
      global_counter("esca_sim_buffer_bank_conflict_stalls_total");
  const std::int64_t port_stalls_before = global_counter("esca_sim_buffer_port_stalls_total");
  for (const Point& p : points) {
    SCOPED_TRACE(str::format("%s scale=%g banks=%d", to_string(p.sweep.dataflow),
                             p.sweep.buffer_scale, p.sweep.banks));
    runtime::EscaBackend backend(bench::sweep_config(p.sweep));
    const runtime::RunReport report =
        backend.run(runtime::make_plan(workload.compiled), runtime::FrameBatch::replay(2),
                    {.verify = false});
    const core::MemorySummary mem = report.memory_summary();
    EXPECT_EQ(mem.dram_bytes_in + mem.dram_bytes_out, p.dram_bytes);
    EXPECT_EQ(mem.dram_bursts, p.dram_bursts);
    EXPECT_EQ(mem.sram_read_bytes, p.sram_read_bytes);
    EXPECT_EQ(mem.sram_write_bytes, p.sram_write_bytes);
    EXPECT_EQ(mem.bank_conflict_stalls, p.bank_conflict_stalls);
    EXPECT_EQ(mem.port_stalls, p.port_stalls);
    EXPECT_EQ(mem.memory_bound_layers, p.memory_bound_layers);
    EXPECT_EQ(mem.compute_bound_layers, p.compute_bound_layers);
  }
  EXPECT_EQ(global_counter("esca_sim_buffer_bank_conflict_stalls_total") - bank_stalls_before,
            67712);
  EXPECT_EQ(global_counter("esca_sim_buffer_port_stalls_total") - port_stalls_before, 165744);
}

/// The counts StableCountsTest.Simulator pins per layer, in this order:
/// total_cycles, then every SdmuStats field (cycles, srf_total, srf_active,
/// srf_skipped, matches, scan / fetch stalls, MUX idle cycles, FIFO high
/// water), stored and core sites, active tiles, and the banked buffer's
/// cycles, bank-conflict stalls and port stalls.
using SimulatorCounts = std::array<std::int64_t, 16>;

SimulatorCounts simulator_counts(const core::LayerRunStats& l) {
  const core::SdmuStats& s = l.sdmu;
  return {l.total_cycles,
          s.cycles,
          s.srf_total,
          s.srf_active,
          s.srf_skipped,
          s.matches,
          s.scan_stall_cycles,
          s.fetch_stall_cycles,
          s.mux_idle_cycles,
          static_cast<std::int64_t>(s.fifo_high_water),
          l.encoding.stored_sites,
          l.encoding.core_sites,
          l.encoding.tiles,
          l.buffer_sim.cycles,
          l.buffer_sim.bank_conflict_stalls,
          l.buffer_sim.port_stalls};
}

// Per-layer counts of the smoke SS U-Net's 11 Sub-Conv layers.
constexpr std::array<SimulatorCounts, 11> kShapenetPaper = {{
    {{7700, 7700, 2560, 92, 2468, 1010, 0, 0, 36, 9, 128, 92, 5, 515, 158, 1299}},
    {{7700, 7700, 2560, 92, 2468, 1010, 0, 0, 36, 9, 128, 92, 5, 515, 158, 1299}},
    {{7700, 7700, 2560, 92, 2468, 1010, 0, 0, 36, 9, 128, 92, 5, 515, 158, 1299}},
    {{4742, 4742, 1536, 38, 1498, 408, 0, 308, 4, 16, 52, 38, 3, 208, 52, 728}},
    {{4742, 4742, 1536, 38, 1498, 408, 0, 308, 4, 16, 52, 38, 3, 208, 52, 728}},
    {{2299, 2299, 512, 18, 494, 186, 2, 360, 1, 16, 18, 18, 1, 96, 28, 298}},
    {{2299, 2299, 512, 18, 494, 186, 2, 360, 1, 16, 18, 18, 1, 96, 28, 298}},
    {{6334, 6334, 1536, 38, 1498, 408, 967, 4697, 4, 16, 52, 38, 3, 208, 52, 728}},
    {{4742, 4742, 1536, 38, 1498, 408, 0, 308, 4, 16, 52, 38, 3, 208, 52, 728}},
    {{7926, 7926, 2560, 92, 2468, 1010, 0, 175, 22, 16, 128, 92, 5, 515, 158, 1299}},
    {{7700, 7700, 2560, 92, 2468, 1010, 0, 0, 36, 9, 128, 92, 5, 515, 158, 1299}},
}};
constexpr std::array<SimulatorCounts, 11> kShapenetStressed = {{
    {{10498, 10498, 1152, 92, 1060, 1010, 1, 121, 84, 2, 424, 92, 18, 532, 87, 1300}},
    {{10498, 10498, 1152, 92, 1060, 1010, 1, 121, 84, 2, 424, 92, 18, 532, 87, 1300}},
    {{10498, 10498, 1152, 92, 1060, 1010, 1, 121, 84, 2, 424, 92, 18, 532, 87, 1300}},
    {{3599, 3599, 320, 38, 282, 408, 592, 3672, 7, 2, 68, 38, 5, 212, 48, 733}},
    {{3599, 3599, 320, 38, 282, 408, 592, 3672, 7, 2, 68, 38, 5, 212, 48, 733}},
    {{2781, 2781, 192, 18, 174, 186, 913, 3394, 3, 2, 35, 18, 3, 99, 23, 324}},
    {{2781, 2781, 192, 18, 174, 186, 913, 3394, 3, 2, 35, 18, 3, 99, 23, 324}},
    {{5100, 5100, 320, 38, 282, 408, 1916, 8479, 7, 2, 68, 38, 5, 212, 48, 733}},
    {{3599, 3599, 320, 38, 282, 408, 592, 3672, 7, 2, 68, 38, 5, 212, 48, 733}},
    {{10591, 10591, 1152, 92, 1060, 1010, 38, 408, 80, 2, 424, 92, 18, 532, 87, 1300}},
    {{10498, 10498, 1152, 92, 1060, 1010, 1, 121, 84, 2, 424, 92, 18, 532, 87, 1300}},
}};
constexpr std::array<SimulatorCounts, 11> kNyuPaper = {{
    {{46531, 46531, 15360, 539, 14821, 4811, 275, 908, 222, 16, 1307, 539, 30, 2489, 761, 5616}},
    {{46531, 46531, 15360, 539, 14821, 4811, 275, 908, 222, 16, 1307, 539, 30, 2489, 761, 5616}},
    {{46531, 46531, 15360, 539, 14821, 4811, 275, 908, 222, 16, 1307, 539, 30, 2489, 761, 5616}},
    {{17842, 17842, 5632, 164, 5468, 1388, 716, 2846, 32, 16, 363, 164, 11, 715, 189, 1916}},
    {{17842, 17842, 5632, 164, 5468, 1388, 716, 2846, 32, 16, 363, 164, 11, 715, 189, 1916}},
    {{6656, 6656, 1024, 65, 959, 577, 3146, 8325, 2, 16, 81, 65, 2, 294, 84, 752}},
    {{6656, 6656, 1024, 65, 959, 577, 3146, 8325, 2, 16, 81, 65, 2, 294, 84, 752}},
    {{21090, 21090, 5632, 164, 5468, 1388, 2940, 10617, 13, 16, 363, 164, 11, 715, 189, 1916}},
    {{17842, 17842, 5632, 164, 5468, 1388, 716, 2846, 32, 16, 363, 164, 11, 715, 189, 1916}},
    {{47389, 47389, 15360, 539, 14821, 4811, 1011, 4044, 147, 16, 1307, 539, 30, 2489, 761, 5616}},
    {{46531, 46531, 15360, 539, 14821, 4811, 275, 908, 222, 16, 1307, 539, 30, 2489, 761, 5616}},
}};
constexpr std::array<SimulatorCounts, 11> kNyuStressed = {{
    {{37788, 37788, 4160, 539, 3621, 4811, 0, 1848, 369, 2, 1412, 539, 65, 2563, 682, 5044}},
    {{37788, 37788, 4160, 539, 3621, 4811, 0, 1848, 369, 2, 1412, 539, 65, 2563, 682, 5044}},
    {{37788, 37788, 4160, 539, 3621, 4811, 0, 1848, 369, 2, 1412, 539, 65, 2563, 682, 5044}},
    {{18496, 18496, 1920, 164, 1756, 1388, 980, 6424, 74, 2, 621, 164, 30, 751, 144, 1740}},
    {{18496, 18496, 1920, 164, 1756, 1388, 980, 6424, 74, 2, 621, 164, 30, 751, 144, 1740}},
    {{8629, 8629, 704, 65, 639, 577, 1821, 8846, 14, 2, 218, 65, 11, 311, 64, 807}},
    {{8629, 8629, 704, 65, 639, 577, 1821, 8846, 14, 2, 218, 65, 11, 311, 64, 807}},
    {{21814, 21814, 1920, 164, 1756, 1388, 3823, 17239, 52, 2, 621, 164, 30, 751, 144, 1740}},
    {{18496, 18496, 1920, 164, 1756, 1388, 980, 6424, 74, 2, 621, 164, 30, 751, 144, 1740}},
    {{39092, 39092, 4160, 539, 3621, 4811, 1114, 12357, 238, 2, 1412, 539, 65, 2563, 682, 5044}},
    {{37788, 37788, 4160, 539, 3621, 4811, 0, 1848, 369, 2, 1412, 539, 65, 2563, 682, 5044}},
}};

// Two frames of one Plan of the smoke SS U-Net through the ESCA backend, on
// the smoke ShapeNet sample and on a sparser NYU-like frame (3.5% of its
// SRFs active), under the paper's architecture and a stressed one (2-deep
// FIFOs, 9-cycle mask reads, 4^3 tiles). The cycle simulator is
// deterministic: a moved count is a change in the simulated hardware.
TEST(StableCountsTest, Simulator) {
  core::ArchConfig stressed;
  stressed.fifo_depth = 2;
  stressed.mask_read_cycles = 9;
  stressed.tile_size = {4, 4, 4};
  const sparse::SparseTensor shapenet = bench::shapenet_tensor(0, 48);
  const sparse::SparseTensor nyu = bench::nyu_tensor(0, 128);
  struct Case {
    const char* name;
    const sparse::SparseTensor& input;
    core::ArchConfig arch;
    const std::array<SimulatorCounts, 11>& layers;
  };
  const Case cases[] = {
      {"shapenet, paper architecture", shapenet, core::ArchConfig{}, kShapenetPaper},
      {"shapenet, stressed", shapenet, stressed, kShapenetStressed},
      {"nyu, paper architecture", nyu, core::ArchConfig{}, kNyuPaper},
      {"nyu, stressed", nyu, stressed, kNyuStressed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const bench::NetworkWorkload workload = bench::benchmark_network(c.input);
    runtime::EscaBackend backend(c.arch);
    const std::int64_t tiled_before = global_counter("esca_sim_tiled_geometries_total");
    const std::int64_t timings_before = global_counter("esca_sim_sdmu_timings_total");
    const std::int64_t reuses_before = global_counter("esca_sim_sdmu_timing_reuses_total");
    const runtime::RunReport report =
        backend.run(runtime::make_plan(workload.compiled), runtime::FrameBatch::replay(2));
    ASSERT_EQ(report.frames.size(), 2U);
    for (const runtime::FrameReport& frame : report.frames) {
      ASSERT_EQ(frame.stats.layers.size(), c.layers.size());
      for (std::size_t i = 0; i < c.layers.size(); ++i) {
        EXPECT_EQ(simulator_counts(frame.stats.layers[i]), c.layers[i])
            << frame.frame_id << " layer " << i;
      }
    }
    // The Plan's 11 layers run on 3 geometries (one per scale) at 5
    // distinct cycles-per-match values; the backend tiles each geometry
    // once for both frames, and the other 17 layer runs reuse a timing.
    EXPECT_EQ(global_counter("esca_sim_tiled_geometries_total") - tiled_before, 3);
    EXPECT_EQ(global_counter("esca_sim_sdmu_timings_total") - timings_before, 5);
    EXPECT_EQ(global_counter("esca_sim_sdmu_timing_reuses_total") - reuses_before, 17);
  }
}

// bench_serve_throughput workers=2 requests=16 clients=4 resolution=48
// reps=1 max_overhead_pct=0, mode=closed and mode=open
TEST(StableCountsTest, ServeThroughput) {
  constexpr int kRequests = 16;
  constexpr int kClients = 4;
  const sparse::SparseTensor input = bench::shapenet_tensor(0, 48);
  Rng rng(bench::kSeed);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 8, 3);
  conv.init_kaiming(rng);

  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  runtime::Engine compiler{cfg.runtime};
  const runtime::PlanPtr plan =
      runtime::share_plan(compiler.compile_layer(conv, input, {.name = "serve-bench"}));
  const runtime::FrameBatch batch = runtime::FrameBatch::replay(1);

  for (const std::string mode : {"closed", "open"}) {
    SCOPED_TRACE(mode);
    serve::Server server(cfg, plan);
    if (mode == "closed") {
      // kClients threads share the request budget, each submitting its next
      // request when the previous one completes.
      std::atomic<int> remaining{kRequests};
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
          serve::Client client = server.client();
          while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
            (void)client.submit_sync(batch);
          }
        });
      }
      for (std::thread& t : clients) t.join();
    } else {  // open loop at rate=0: one burst of every request
      serve::Client client = server.client();
      std::vector<std::future<serve::Response>> futures;
      for (int r = 0; r < kRequests; ++r) futures.push_back(client.submit(batch));
      for (auto& f : futures) (void)f.get();
    }

    const serve::TelemetrySnapshot s = server.telemetry_snapshot();
    EXPECT_EQ(s.completed, 16);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.expired, 0);
    EXPECT_EQ(s.failed, 0);
    EXPECT_EQ(s.retries, 0);
    EXPECT_EQ(s.brownout_sheds, 0);
    const obs::Registry& registry = server.telemetry().registry();
    EXPECT_EQ(registry.find_counter("esca_serve_submitted_total")->value(), 16);
    EXPECT_EQ(registry.find_counter("esca_serve_completed_total")->value(), 16);
  }
}

}  // namespace
}  // namespace esca
