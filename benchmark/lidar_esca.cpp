// lidar_esca: one caller runs a closed loop over distinct 64-beam street
// frames, each taken from points to a verified result on the ESCA cycle
// simulator: voxelize -> float SS U-Net forward with trace -> compile ->
// Session::submit(verify). Nothing carries over between frames.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "nn/unet.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "sparse/geometry.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::e2e {

namespace {

constexpr int kAzimuthSteps = 3600;
constexpr int kBeams = 64;
constexpr int kResolution = 512;
/// Distinct frames per run: frame 0 is the untimed check frame, the timed
/// loop cycles through the rest.
constexpr int kFrames = 8;
/// Latency limit of slo_met_frac on this workload.
constexpr double kSloSeconds = 10.0;

struct Setup {
  std::vector<pc::PointCloud> clouds;
  std::unique_ptr<nn::SSUNet> net;
  std::unique_ptr<runtime::Engine> esca;
};

Setup make_setup(std::uint64_t seed) {
  datasets::SequenceConfig motion;
  motion.frames = kFrames;
  motion.yaw_per_frame = 0.01F;
  motion.resample_fraction = 0.05F;
  const datasets::SequenceDataset sequence =
      street_sequence(seed, kAzimuthSteps, kBeams, motion);
  Setup setup;
  for (int t = 0; t < kFrames; ++t) setup.clouds.push_back(sequence.frame(t));
  setup.net = std::make_unique<nn::SSUNet>(nn::SSUNetConfig{}, seed);
  setup.esca = std::make_unique<runtime::Engine>(
      runtime::RuntimeConfig{.backend = runtime::BackendKind::kEsca});
  return setup;
}

/// Host seconds per stage of one frame, plus what the frame returned.
struct Frame {
  double voxel{0.0};
  double forward{0.0};
  double compile{0.0};
  double submit{0.0};
  double total{0.0};
  std::size_t sites{0};
  std::int64_t geometry_builds{0};
  runtime::RunReport report;
};

/// One frame from points to a verified ESCA result. With `plan`, the frame
/// keeps its per-layer outputs and hands its Plan out for the CPU check.
Frame run_frame(Setup& setup, const pc::PointCloud& cloud, const std::string& id,
                runtime::PlanPtr* plan = nullptr) {
  Frame f;
  const obs::CounterGuard builds(sparse::geometry_builds_counter());
  timed("lidar.frame", f.total, [&] {
    const sparse::SparseTensor input = timed("voxel.frame", f.voxel, [&] {
      return sparse::SparseTensor::from_voxel_grid(
          voxel::voxelize(cloud, {.resolution = kResolution}), 1);
    });
    std::vector<nn::TraceEntry> trace;
    timed("nn.forward", f.forward, [&] { (void)setup.net->forward(input, &trace); });
    runtime::Session session = timed("core.compile", f.compile, [&] {
      return setup.esca->open_session(setup.esca->compile(trace));
    });
    f.report = timed("runtime.esca_submit", f.submit, [&] {
      return session.submit(runtime::FrameBatch::single(id),
                            {.verify = true, .keep_outputs = plan != nullptr});
    });
    if (plan != nullptr) *plan = session.plan_ptr();
    f.sites = input.size();
  });
  f.geometry_builds = builds.delta();
  return f;
}

struct Pass {
  std::vector<Frame> frames;  ///< reports without outputs
  double elapsed{0.0};

  std::vector<double> column(double Frame::*field) const {
    std::vector<double> v;
    for (const Frame& f : frames) v.push_back(f.*field);
    return v;
  }
};

/// Closed loop for `seconds`: the next frame starts when the last returns.
Pass timed_pass(Setup& setup, double seconds, Result& result) {
  Pass pass;
  const auto start = Clock::now();
  for (int i = 0; pass.frames.empty() || seconds_since(start) < seconds; ++i) {
    const int index = 1 + i % (kFrames - 1);
    Frame f = run_frame(setup, setup.clouds[static_cast<std::size_t>(index)],
                        "frame" + std::to_string(index));
    // Per-frame simulated cycles join the repeatability guard.
    result.exact["lidar.frame" + std::to_string(index) + ".sim_cycles"] =
        static_cast<double>(f.report.total_cycles());
    std::fprintf(stderr, "  frame %d: %.3f s host (esca submit %.3f s)\n", index, f.total, f.submit);
    pass.frames.push_back(std::move(f));
  }
  pass.elapsed = seconds_since(start);
  return pass;
}

}  // namespace

Result run_lidar_esca(const Args& args) {
  Result result;

  std::optional<Setup> setup;
  result.set("setup_s", repeated_setup(setup, [&] { return make_setup(args.seed); }), "s");

  // Untimed check frame: the ESCA outputs must equal the CPU backend's, layer
  // by layer (each backend is also verified against the integer gold).
  runtime::PlanPtr plan;
  const Frame check = run_frame(*setup, setup->clouds.front(), "check", &plan);
  runtime::Engine cpu({.backend = runtime::BackendKind::kCpu});
  runtime::Session cpu_session = cpu.open_session(plan);
  const runtime::RunReport cpu_report = cpu_session.submit(
      runtime::FrameBatch::single("check"), {.verify = true, .keep_outputs = true});
  if (!same_outputs(check.report, cpu_report)) {
    result.fail("lidar_esca: ESCA outputs differ from the CPU backend's");
  }
  report_sim_stats(check.report, setup->esca->config().arch.compute_parallelism(), result);
  result.set_exact("sparse.geometry_builds", static_cast<double>(check.geometry_builds), "count");
  double cpu_seconds = 0.0;
  double cpu_macs = 0.0;
  for (const core::LayerRunStats& layer : cpu_report.frames.front().stats.layers) {
    cpu_seconds += layer.compute_seconds;
    cpu_macs += static_cast<double>(layer.mac_ops);
  }
  result.set("runtime.cpu_layers_ms", cpu_seconds * 1e3, "ms");
  result.set("runtime.cpu_gmacs_per_s", cpu_macs / cpu_seconds / 1e9, "GMAC/s");
  std::fprintf(stderr, "lidar_esca: %zu sites/frame, %.1f ms simulated, %.2f s host\n",
               check.sites, check.report.total_seconds() * 1e3, check.total);

  obs::CounterGuard arena_grows(sparse::compute_arena_grows_counter());
  const Pass plain = timed_pass(*setup, args.seconds, result);
  const std::vector<double> totals = plain.column(&Frame::total);
  const double frame_s = median(totals);
  std::int64_t within_slo = 0;
  for (const double t : totals) within_slo += t <= kSloSeconds ? 1 : 0;
  result.attempted = static_cast<std::int64_t>(totals.size());
  result.set("frame_host_s", frame_s, "s");
  result.set("latency_p50_ms", frame_s * 1e3, "ms");
  result.set("latency_p95_ms", quantile(totals, 0.95) * 1e3, "ms");
  result.set("slo_met_frac", static_cast<double>(within_slo) / static_cast<double>(totals.size()),
             "ratio");
  result.set("throughput_fps", static_cast<double>(totals.size()) / plain.elapsed, "frames/s");

  // Per-layer numbers come from the traced pass when there is one.
  std::optional<Pass> traced;
  if (args.trace) {
    obs::TraceSession::clear();
    obs::TraceSession::start();
    traced = timed_pass(*setup, args.seconds, result);
    obs::TraceSession::stop();
    write_trace(args, result);
    result.attempted += static_cast<std::int64_t>(traced->frames.size());
    result.traced_frames = static_cast<std::int64_t>(traced->frames.size());
    result.set("trace.overhead_frac", median(traced->column(&Frame::total)) / frame_s - 1.0,
               "ratio");
  }
  result.set("sparse.compute_arena_grows", static_cast<double>(arena_grows.delta()), "count");
  const Pass& layers = traced ? *traced : plain;
  const double voxel = median(layers.column(&Frame::voxel));
  const double forward = median(layers.column(&Frame::forward));
  const double compile = median(layers.column(&Frame::compile));
  const double submit = median(layers.column(&Frame::submit));
  result.set("voxel.frame_ms", voxel * 1e3, "ms");
  result.set("nn.forward_ms", forward * 1e3, "ms");
  result.set("core.compile_ms", compile * 1e3, "ms");
  result.set("runtime.esca_submit_ms", submit * 1e3, "ms");
  result.set("trace.accounted_frac",
             (voxel + forward + compile + submit) / median(layers.column(&Frame::total)), "ratio");
  std::vector<double> ns_per_cycle;
  for (const Frame& f : layers.frames) {
    ns_per_cycle.push_back(f.submit / static_cast<double>(f.report.total_cycles()) * 1e9);
  }
  result.set("runtime.esca_host_ns_per_cycle", median(ns_per_cycle), "ns/cycle");
  return result;
}

}  // namespace esca::e2e
