#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/trace_check.hpp"

namespace esca::e2e {

void Result::fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double windowed_quantile(const std::vector<double>& samples, std::size_t window, double q) {
  if (samples.size() < window) return quantile(samples, q);
  std::vector<double> per_window;
  for (auto it = samples.begin(); samples.end() - it >= static_cast<std::ptrdiff_t>(window);
       it += static_cast<std::ptrdiff_t>(window)) {
    per_window.push_back(quantile({it, it + static_cast<std::ptrdiff_t>(window)}, q));
  }
  return median(per_window);
}

double windowed_rate(const std::vector<double>& done, std::size_t window) {
  if (done.empty()) return 0.0;
  if (done.size() < window) return static_cast<double>(done.size()) / done.back();
  std::vector<double> per_window;
  double previous = 0.0;  // the pass start
  for (std::size_t end = window; end <= done.size(); end += window) {
    per_window.push_back(static_cast<double>(window) / (done[end - 1] - previous));
    previous = done[end - 1];
  }
  return median(per_window);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void report_sim_stats(const runtime::RunReport& report, int parallelism, Result& result) {
  const core::MemorySummary mem = report.memory_summary();
  std::int64_t active_tiles = 0;
  std::int64_t total_tiles = 0;
  for (const runtime::FrameReport& frame : report.frames) {
    for (const core::LayerRunStats& layer : frame.stats.layers) {
      active_tiles += layer.zero_removing.active_tiles;
      total_tiles += layer.zero_removing.total_tiles;
    }
  }
  const auto cycles = static_cast<double>(report.total_cycles());
  const auto macs = static_cast<double>(report.total_mac_ops());
  result.set_exact("sim_frame_ms", report.total_seconds() * 1e3, "ms");
  result.set_exact("core.sim_cycles", cycles, "count");
  result.set_exact("core.mac_ops", macs, "count");
  result.set("core.array_utilization", macs / (static_cast<double>(parallelism) * cycles),
             "ratio");
  result.set_exact("core.active_tile_frac",
                   static_cast<double>(active_tiles) / static_cast<double>(total_tiles), "ratio");
  result.set_exact("core.sdmu_stall_cycles",
                   static_cast<double>(mem.sdmu_scan_stalls + mem.sdmu_fetch_stalls), "count");
  result.set_exact("sim_mem.dram_bytes", static_cast<double>(mem.dram_bytes_in + mem.dram_bytes_out),
                   "bytes");
  result.set_exact("sim_mem.bank_conflict_stalls", static_cast<double>(mem.bank_conflict_stalls),
                   "count");
  result.set_exact("sim_mem.memory_bound_layers", mem.memory_bound_layers, "count");
}

bool same_outputs(const runtime::RunReport& a, const runtime::RunReport& b) {
  if (a.frames.size() != b.frames.size()) return false;
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    if (a.frames[f].outputs.empty() || a.frames[f].outputs != b.frames[f].outputs) return false;
  }
  return true;
}

void write_trace(const Args& args, Result& result) {
  const std::size_t events = obs::TraceSession::write_json_file(args.trace_file);
  const obs::TraceCheckResult check = obs::check_trace_file(args.trace_file);
  if (!check.ok) result.fail("trace " + args.trace_file + " is invalid: " + check.error);
  result.set("trace.events", static_cast<double>(events), "count");
  result.set("trace.spans_dropped", static_cast<double>(obs::TraceSession::spans_dropped()),
             "count");
}

datasets::Scene street_scene(Rng& rng) {
  datasets::Scene scene;
  scene.add_rect({'z', 0.0F, {-50, -50, 0}, {50, 50, 0}});
  for (int i = 0; i < 6; ++i) {
    const float x = -30.0F + 12.0F * static_cast<float>(i);
    for (const float side : {-12.0F, 12.0F}) {
      const float width = rng.uniform_f(5.0F, 7.0F);
      const float height = rng.uniform_f(8.0F, 12.0F);
      geom::Aabb building;
      building.expand({x, side - width * 0.5F, 0.0F});
      building.expand({x + width, side + width * 0.5F, height});
      scene.add_box(building);
    }
  }
  // Parked and passing cars, kept clear of the sensor so that no seed's
  // frame is mostly one occluding car.
  for (int i = 0; i < 4; ++i) {
    const float x = (i % 2 == 0 ? 1.0F : -1.0F) * rng.uniform_f(8.0F, 20.0F);
    const float y = (i < 2 ? 1.0F : -1.0F) * rng.uniform_f(2.5F, 4.5F);
    geom::Aabb car;
    car.expand({x, y, 0.0F});
    car.expand({x + 4.2F, y + 1.8F, 1.5F});
    scene.add_box(car);
  }
  return scene;
}

pc::PointCloud lidar_sweep(const datasets::Scene& scene, int azimuth_steps, int beams) {
  constexpr float kMaxRange = 40.0F;
  const geom::Vec3 origin{0.0F, 0.0F, 1.8F};
  pc::PointCloud cloud;
  for (int b = 0; b < beams; ++b) {
    // -15 .. +2 degrees of elevation, Velodyne-like.
    const float elevation = -0.26F + 0.30F * static_cast<float>(b) / static_cast<float>(beams);
    for (int a = 0; a < azimuth_steps; ++a) {
      const float azimuth = 2.0F * std::numbers::pi_v<float> * static_cast<float>(a) /
                            static_cast<float>(azimuth_steps);
      const geom::Vec3 dir{std::cos(azimuth) * std::cos(elevation),
                           std::sin(azimuth) * std::cos(elevation), std::sin(elevation)};
      const auto t = scene.raycast({origin, dir});
      if (!t || *t > kMaxRange) continue;
      cloud.add(origin + dir * (*t), 1.0F / (1.0F + *t));
    }
  }
  // Fixed sensor-centred frame: +-kMaxRange maps into [0.05, 0.95], so the
  // grid does not move with the scene's extent and motion stays in range.
  pc::PointCloud placed;
  const geom::Vec3 centre{0.5F, 0.5F, 0.5F};
  const float scale = 0.45F / kMaxRange;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    placed.add(centre + (cloud.position(i) - origin) * scale, cloud.intensity(i));
  }
  return placed;
}

datasets::SequenceDataset street_sequence(std::uint64_t seed, int azimuth_steps, int beams,
                                          const datasets::SequenceConfig& config) {
  Rng rng(seed);
  const datasets::Scene scene = street_scene(rng);
  return datasets::SequenceDataset(lidar_sweep(scene, azimuth_steps, beams), config, seed);
}

}  // namespace esca::e2e
