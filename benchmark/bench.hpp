// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result record every workload fills, stage timing with obs spans, sample
// statistics and the synthetic street-scene LiDAR inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datasets/depth_camera.hpp"
#include "datasets/sequence.hpp"
#include "obs/trace.hpp"
#include "pointcloud/point_cloud.hpp"
#include "runtime/backend.hpp"

namespace esca::e2e {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  std::string trace_file;  ///< Chrome trace output path (trace mode)
};

/// What one workload run reports. `metrics` maps a name to its value and
/// unit; `exact` repeats the subset that must be bit-identical for a given
/// seed (the repeatability guard compares it across runs).
struct Result {
  bool correct{true};
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::int64_t traced_frames{0};  ///< frames of the traced pass (trace mode)
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> exact;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void set_exact(const std::string& name, double value, const std::string& unit) {
    set(name, value, unit);
    exact[name] = value;
  }
  /// Record a failed output check; the run then reports correct=false.
  void fail(const std::string& what);
};

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run `fn` inside an obs span named `name` (a string literal) and store its
/// wall time in `seconds`. The span and the timer cover the same interval.
template <typename Fn>
decltype(auto) timed(const char* name, double& seconds, Fn&& fn) {
  struct Timer {
    obs::Span span;
    Clock::time_point start;
    double& out;
    ~Timer() { out = seconds_since(start); }
  } timer{obs::Span(name), Clock::now(), seconds};
  return fn();
}

/// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

/// Median, over consecutive windows of `window` samples (in time order), of
/// each window's q-quantile. A slow phase of the host shorter than half the
/// run moves it little, where it would set a tail quantile of the whole
/// run. The plain quantile when there is less than one window.
double windowed_quantile(const std::vector<double>& samples, std::size_t window, double q);

/// Median, over consecutive windows of `window` completions, of each
/// window's completions per second. `done` holds completion times in
/// seconds after the pass started, ascending.
double windowed_rate(const std::vector<double>& done, std::size_t window);

/// Set-ups per run; setup_s is the median of their times.
inline constexpr int kSetupReps = 7;

/// Build a workload's set-up kSetupReps times with `make`, destroying the
/// previous one first, keep the last and return the median build seconds.
template <typename Setup, typename Make>
double repeated_setup(std::optional<Setup>& setup, Make&& make) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupReps; ++r) {
    setup.reset();
    const auto start = Clock::now();
    setup.emplace(make());
    seconds.push_back(seconds_since(start));
  }
  return median(seconds);
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Simulated-hardware statistics of one ESCA run, as benchmark metrics
/// (core.*, sim_mem.*, sim_frame_ms). All of them are exact.
void report_sim_stats(const runtime::RunReport& report, int parallelism, Result& result);

/// Layer-by-layer equality of two reports' kept outputs.
bool same_outputs(const runtime::RunReport& a, const runtime::RunReport& b);

/// Write the recorded spans to args.trace_file and validate the file with
/// the obs trace checker (a malformed trace fails the run).
void write_trace(const Args& args, Result& result);

// --- inputs -----------------------------------------------------------------

/// A street: ground plane, two rows of buildings and a few vehicles, with
/// sizes and positions drawn from `rng`.
datasets::Scene street_scene(Rng& rng);

/// A spinning multi-beam scanner at the origin sweeping `azimuth_steps` x
/// `beams` rays over the scene (returns beyond 40 m are dropped). The cloud
/// is scaled into the middle of the unit cube, leaving room for sensor motion.
pc::PointCloud lidar_sweep(const datasets::Scene& scene, int azimuth_steps, int beams);

/// A sensor stream over a seeded street scene: frame t of the result is the
/// sweep seen after t frames of motion and measurement churn.
datasets::SequenceDataset street_sequence(std::uint64_t seed, int azimuth_steps, int beams,
                                          const datasets::SequenceConfig& config);

// --- workloads --------------------------------------------------------------

Result run_lidar_esca(const Args& args);
Result run_stream(const Args& args, bool saturated);

}  // namespace esca::e2e
