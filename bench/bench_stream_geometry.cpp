// Stream benchmark: cold per-frame geometry rebuild vs incremental patching
// across a simulated sensor sequence at 50/80/95 % frame overlap, swept over
// the geometry shard count (1/2/4 threads).
//
// Each overlap level builds a datasets::SequenceDataset over a ShapeNet-like
// object (motion disabled — the resample fraction is the overlap knob),
// voxelizes every frame, and times the geometry path two ways:
//   cold        — build_submanifold_geometry(frame, 3) for every frame,
//                 single-thread (the algorithmic baseline)
//   incremental — stream::IncrementalGeometry::update per frame at each
//                 swept shard count (frame 0 cold-builds and is excluded
//                 from both timings)
// Every incremental geometry — at every thread count — is verified
// bit-identical to the single-thread cold build (sparse::geometry_equal)
// before any timing, so the sweep doubles as the sharding-determinism check.
// speedup compares against the cold baseline; speedup_vs_1t isolates the
// parallel scaling of the patch itself (expect ~1x on single-core hosts —
// the bit-identity checks are the hard gate there).
//
// Usage: bench_stream_geometry [resolution=128] [frames=6] [repeats=3]
//                              [smoke=0]
// smoke=1 shrinks the workload to the one CI runs.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sparse/geometry.hpp"
#include "stream/stream.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct OverlapResult {
  double measured_overlap{0.0};
  std::size_t mean_sites{0};
  double cold_ms{0.0};  ///< mean per-frame, min over repeats, shards=1
  std::vector<double> incremental_ms;  ///< per swept thread count
  std::uint64_t patched{0};
  std::uint64_t rebuilds{0};  ///< churn fallbacks past frame 0
};

OverlapResult run_overlap(const std::vector<sparse::SparseTensor>& frames, int repeats,
                          const std::vector<int>& thread_sweep) {
  OverlapResult out;
  const auto steady = static_cast<std::size_t>(frames.size() - 1);  // frames past the first

  // Verification pass (untimed): at every swept shard count, every
  // incremental geometry must be bit-identical to the single-thread cold
  // build of the same frame.
  for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
    stream::IncrementalGeometry inc(
        {.kernel_size = 3, .geometry = {.shards = thread_sweep[ti]}});
    (void)inc.update(frames[0]);
    for (std::size_t t = 1; t < frames.size(); ++t) {
      const stream::GeometryUpdate upd = inc.update(frames[t]);
      const sparse::LayerGeometry cold =
          sparse::build_submanifold_geometry(frames[t], 3, {.shards = 1});
      ESCA_CHECK(sparse::geometry_equal(*upd.geometry, cold),
                 "incremental geometry (" << thread_sweep[ti]
                                          << " threads) diverged from cold rebuild at frame "
                                          << t);
      if (ti == 0) {
        out.patched += upd.patched ? 1 : 0;
        out.rebuilds += upd.patched ? 0 : 1;
        const stream::FrameDelta delta = stream::diff_frames(frames[t - 1], frames[t]);
        out.measured_overlap += delta.overlap_fraction();
        out.mean_sites += frames[t].size();
      }
    }
  }
  out.measured_overlap /= static_cast<double>(steady);
  out.mean_sites /= steady;

  double cold_best = 1e30;
  std::vector<double> incr_best(thread_sweep.size(), 1e30);
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 1; t < frames.size(); ++t) {
      (void)sparse::build_submanifold_geometry(frames[t], 3, {.shards = 1});
    }
    cold_best = std::min(cold_best, seconds_since(t0));

    for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
      stream::IncrementalGeometry inc(
          {.kernel_size = 3, .geometry = {.shards = thread_sweep[ti]}});
      (void)inc.update(frames[0]);  // warm start, untimed for both paths
      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t t = 1; t < frames.size(); ++t) (void)inc.update(frames[t]);
      incr_best[ti] = std::min(incr_best[ti], seconds_since(t1));
    }
  }
  out.cold_ms = cold_best * 1e3 / static_cast<double>(steady);
  out.incremental_ms.reserve(thread_sweep.size());
  for (const double s : incr_best) {
    out.incremental_ms.push_back(s * 1e3 / static_cast<double>(steady));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const int resolution = static_cast<int>(cfg.get_int("resolution", smoke ? 64 : 128));
  const int frames = static_cast<int>(cfg.get_int("frames", smoke ? 3 : 6));
  const int repeats = static_cast<int>(cfg.get_int("repeats", smoke ? 1 : 3));
  ESCA_REQUIRE(frames >= 2, "need at least 2 frames to stream");
  ESCA_REQUIRE(repeats >= 1, "repeats must be >= 1, got " << repeats);
  const std::vector<int> thread_sweep = smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};

  std::printf(
      "ESCA bench: streaming geometry — cold rebuild vs incremental patching\n"
      "(ShapeNet-like sequence at %d^3, %d frames, k=3, min over %d repeats,\n"
      " patch sharded over 1/2/4 threads; every incremental geometry at every\n"
      " thread count verified bit-identical to the single-thread cold build)\n\n",
      resolution, frames, repeats);

  Table table("STREAM GEOMETRY: COLD REBUILD vs SHARDED INCREMENTAL PATCH");
  table.header({"Overlap", "Measured", "Sites", "Threads", "Cold/frame", "Incr/frame",
                "Speedup", "vs 1T", "Patched", "Fallbacks"});
  for (const int overlap_pct : {50, 80, 95}) {
    const auto tensors = bench::voxelized_sequence(overlap_pct, resolution, frames);
    const OverlapResult r = run_overlap(tensors, repeats, thread_sweep);
    for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
      const double incr_ms = r.incremental_ms[ti];
      const double vs_1t = r.incremental_ms[0] / incr_ms;
      table.row({str::format("%d%%", overlap_pct),
                 str::format("%.1f%%", 100.0 * r.measured_overlap),
                 str::with_commas(static_cast<std::int64_t>(r.mean_sites)),
                 str::format("%d", thread_sweep[ti]), str::format("%.2f ms", r.cold_ms),
                 str::format("%.2f ms", incr_ms), str::format("%.2fx", r.cold_ms / incr_ms),
                 str::format("%.2fx", vs_1t),
                 str::format("%llu", static_cast<unsigned long long>(r.patched)),
                 str::format("%llu", static_cast<unsigned long long>(r.rebuilds))});
    }
  }
  table.print();
  return 0;
}
