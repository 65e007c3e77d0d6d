// stream_paced / stream_saturated: four sticky 32-beam sensor streams served
// by a serve::Server with two CPU-backend workers and 3-scale
// SequenceSessions. stream_paced sends from one generator thread on a fixed
// aggregate schedule (open loop); stream_saturated lets every stream send
// its next frame as soon as its previous reply arrives (closed loop).
//
// The CPU backend still replays the Plan's calibration tensor for every
// frame; the streamed frame drives the geometry diff and patch only.
#include <algorithm>
#include <cstdio>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "nn/unet.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "serve/server.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::e2e {

namespace {

constexpr int kStreams = 4;
constexpr int kAzimuthSteps = 1800;
constexpr int kBeams = 32;
constexpr int kResolution = 256;
/// Distinct frames per stream; streams play them forwards then backwards,
/// so consecutive frames are always neighbours in the sequence.
constexpr int kFrames = 16;
constexpr int kWorkers = 2;
constexpr int kScales = 3;
/// Frames per stream sent before timing starts (cold builds, arena growth).
constexpr int kWarmupFrames = 3;
/// Frames per stream whose geometry the check pass compares to cold builds.
constexpr int kCheckFrames = 4;
/// Completions per window of latency_p95_ms and throughput_fps: about 3 s of
/// stream_paced, 1.5 s of stream_saturated.
constexpr std::size_t kWindowFrames = 40;
/// stream_paced aggregate send rate, about 40 % of stream_saturated
/// throughput on a 4-core host. Fixed, so every commit sees the same load.
constexpr double kPacedFramesPerSecond = 12.0;
/// Latency limits of slo_met_frac.
constexpr double kPacedSloSeconds = 0.25;
constexpr double kSaturatedSloSeconds = 1.0;

struct Setup {
  std::vector<std::vector<sparse::SparseTensor>> frames;  ///< [stream][t]
  std::vector<double> voxel_seconds;                      ///< one per frame
  double forward_seconds{0.0};
  double compile_seconds{0.0};
  runtime::PlanPtr plan;
  std::unique_ptr<serve::Server> server;
};

serve::ServerConfig server_config() {
  serve::ServerConfig config;
  config.workers = kWorkers;
  config.runtime.backend = runtime::BackendKind::kCpu;
  config.sequence.scales = kScales;
  return config;
}

Setup make_setup(std::uint64_t seed) {
  Setup setup;
  datasets::SequenceConfig motion;
  motion.frames = kFrames;
  // Re-measuring 4 % of the points per frame, half a voxel away, leaves
  // about 90 % of the sites of consecutive frames in common.
  motion.resample_fraction = 0.04F;
  motion.resample_jitter = 0.002F;
  for (int s = 0; s < kStreams; ++s) {
    const datasets::SequenceDataset sequence =
        street_sequence(seed * 1000003 + static_cast<std::uint64_t>(s), kAzimuthSteps, kBeams,
                        motion);
    std::vector<sparse::SparseTensor>& frames = setup.frames.emplace_back();
    for (int t = 0; t < kFrames; ++t) {
      const pc::PointCloud cloud = sequence.frame(t);
      double seconds = 0.0;
      frames.push_back(timed("voxel.frame", seconds, [&] {
        return sparse::SparseTensor::from_voxel_grid(
            voxel::voxelize(cloud, {.resolution = kResolution}), 1);
      }));
      setup.voxel_seconds.push_back(seconds);
    }
  }
  const nn::SSUNet net(nn::SSUNetConfig{}, seed);
  std::vector<nn::TraceEntry> trace;
  timed("nn.forward", setup.forward_seconds,
        [&] { (void)net.forward(setup.frames.front().front(), &trace); });
  const runtime::Engine compiler({.backend = runtime::BackendKind::kCpu});
  setup.plan = timed("core.compile", setup.compile_seconds,
                     [&] { return runtime::share_plan(compiler.compile(trace)); });
  setup.server = std::make_unique<serve::Server>(server_config(), setup.plan);
  return setup;
}

/// Cold reference geometry of every scale of `frame`, built the way the
/// network builds it: stride-2 downsampling, then a submanifold build.
std::vector<sparse::LayerGeometry> cold_geometries(const sparse::SparseTensor& frame) {
  std::vector<sparse::LayerGeometry> out;
  sparse::SparseTensor sites = frame.zeros_like(1);
  for (int s = 0; s < kScales; ++s) {
    out.push_back(sparse::build_submanifold_geometry(sites, 3));
    if (s + 1 == kScales) break;
    std::vector<Coord3> coarse =
        sparse::build_downsample_geometry(sites, 2, 2).out_coords;
    sparse::CoordIndex index;
    index.rebuild(coarse);
    const Coord3 fine = sites.spatial_extent();
    sites = sparse::SparseTensor::from_coords({(fine.x + 1) / 2, (fine.y + 1) / 2, (fine.z + 1) / 2},
                                              1, std::move(coarse), std::move(index));
  }
  return out;
}

/// Untimed output checks: streamed geometry equals cold builds for the first
/// frames of every stream, and the ESCA backend's outputs on the served Plan
/// equal the CPU backend's. Also yields the exact counts and the simulated
/// statistics of the served frame.
void check_pass(const Setup& setup, Result& result) {
  runtime::Engine cpu({.backend = runtime::BackendKind::kCpu});
  runtime::Session session = cpu.open_session(setup.plan);
  std::int64_t builds = 0;
  std::int64_t patched = 0;
  std::int64_t rebuilt = 0;
  for (int s = 0; s < kStreams; ++s) {
    stream::SequenceSession stream(session, server_config().sequence);
    for (int t = 0; t < kCheckFrames; ++t) {
      const sparse::SparseTensor& frame = setup.frames[static_cast<std::size_t>(s)][t];
      const obs::CounterGuard cold_builds(sparse::geometry_builds_counter());
      const stream::SequenceFrameResult r = stream.advance(frame, "", {.verify = true});
      if (t > 0) {  // steady state: the first frame of a stream always cold-builds
        builds += cold_builds.delta();
        patched += static_cast<std::int64_t>(r.stats.patched_scales());
        rebuilt += static_cast<std::int64_t>(r.stats.scales.size() - r.stats.patched_scales());
      }
      const std::vector<sparse::LayerGeometry> cold = cold_geometries(frame);
      for (int k = 0; k < kScales; ++k) {
        if (!sparse::geometry_equal(*r.geometries[static_cast<std::size_t>(k)],
                                    cold[static_cast<std::size_t>(k)])) {
          result.fail("stream " + std::to_string(s) + " frame " + std::to_string(t) + " scale " +
                      std::to_string(k) + ": streamed geometry differs from a cold build");
        }
      }
    }
  }
  const double steady_frames = kStreams * (kCheckFrames - 1);
  result.set_exact("sparse.geometry_builds", static_cast<double>(builds) / steady_frames, "count");
  result.set_exact("stream.patched_scales", static_cast<double>(patched), "count");
  result.set_exact("stream.rebuilt_scales", static_cast<double>(rebuilt), "count");

  runtime::Engine esca({.backend = runtime::BackendKind::kEsca});
  runtime::Session esca_session = esca.open_session(setup.plan);
  const runtime::FrameBatch frame = runtime::FrameBatch::single("check");
  double submit = 0.0;
  const runtime::RunReport esca_report = timed("runtime.esca_submit", submit, [&] {
    return esca_session.submit(frame, {.verify = true, .keep_outputs = true});
  });
  const runtime::RunReport cpu_report =
      session.submit(frame, {.verify = true, .keep_outputs = true});
  if (!same_outputs(esca_report, cpu_report)) {
    result.fail("served Plan: ESCA outputs differ from the CPU backend's");
  }
  report_sim_stats(esca_report, esca.config().arch.compute_parallelism(), result);
  result.set("runtime.esca_submit_ms", submit * 1e3, "ms");
  result.set("runtime.esca_host_ns_per_cycle",
             submit / static_cast<double>(esca_report.total_cycles()) * 1e9, "ns/cycle");
}

/// Per-stream position in the forwards-then-backwards frame order.
class Player {
 public:
  const sparse::SparseTensor& next(const Setup& setup, int stream) {
    constexpr int kPeriod = 2 * (kFrames - 1);
    const int q = position_[static_cast<std::size_t>(stream)]++ % kPeriod;
    return setup.frames[static_cast<std::size_t>(stream)][q < kFrames ? q : kPeriod - q];
  }

 private:
  std::vector<int> position_ = std::vector<int>(kStreams, 0);
};

/// One frame as the load generator saw it.
struct Sample {
  serve::Response response;
  double latency{0.0};  ///< from the scheduled (open loop) or actual send
  double late{0.0};     ///< send time minus scheduled time (open loop)
  double done{0.0};     ///< completion, seconds after the pass started
};

struct Pass {
  std::vector<Sample> samples;  ///< in completion order
  void sort_by_completion() {
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Sample& a, const Sample& b) { return a.done < b.done; });
  }
  std::vector<double> column(double (*field)(const Sample&)) const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (s.response.ok()) v.push_back(field(s));
    }
    return v;
  }
};

const serve::SubmitOptions kSubmit{.run = {.verify = true}};

Pass paced_pass(Setup& setup, Player& player, double seconds) {
  struct InFlight {
    Clock::duration scheduled;
    Clock::duration sent;
    std::future<serve::Response> response;
  };
  std::vector<InFlight> in_flight;
  serve::Client client = setup.server->client();
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPacedFramesPerSecond));
  const auto start = Clock::now();
  for (int i = 0; gap * i < std::chrono::duration<double>(seconds); ++i) {
    const int stream = i % kStreams;
    std::vector<sparse::SparseTensor> payload{player.next(setup, stream)};
    std::this_thread::sleep_until(start + gap * i);
    const auto sent = Clock::now();
    double submit = 0.0;
    auto response = timed("serve.submit_sequence", submit, [&] {
      return client.submit_sequence(static_cast<std::uint64_t>(stream), std::move(payload),
                                    kSubmit);
    });
    in_flight.push_back({gap * i, sent - start, std::move(response)});
  }
  Pass pass;
  for (InFlight& f : in_flight) {
    Sample s{f.response.get()};
    s.late = std::chrono::duration<double>(f.sent - f.scheduled).count();
    s.latency = s.late + s.response.total_seconds;
    s.done = std::chrono::duration<double>(f.sent).count() + s.response.total_seconds;
    pass.samples.push_back(std::move(s));
  }
  pass.sort_by_completion();
  return pass;
}

Pass saturated_pass(Setup& setup, Player& player, double seconds) {
  const int clients = std::min<int>(kStreams, std::max(1U, std::thread::hardware_concurrency()));
  std::vector<std::vector<Sample>> per_client(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client = setup.server->client();
        std::vector<Sample>& out = per_client[static_cast<std::size_t>(c)];
        while (seconds_since(start) < seconds) {
          for (int stream = c; stream < kStreams; stream += clients) {
            std::vector<sparse::SparseTensor> payload{player.next(setup, stream)};
            double latency = 0.0;
            serve::Response response = timed("serve.submit_sequence", latency, [&] {
              return client
                  .submit_sequence(static_cast<std::uint64_t>(stream), std::move(payload), kSubmit)
                  .get();
            });
            out.push_back({std::move(response), latency, 0.0, seconds_since(start)});
          }
        }
      });
    }
  }  // jthreads join here
  Pass pass;
  for (std::vector<Sample>& samples : per_client) {
    std::move(samples.begin(), samples.end(), std::back_inserter(pass.samples));
  }
  pass.sort_by_completion();
  return pass;
}

double cpu_layer_seconds(const Sample& s) {
  double total = 0.0;
  for (const core::LayerRunStats& layer : s.response.report.frames.front().stats.layers) {
    total += layer.compute_seconds;
  }
  return total;
}
double execute_seconds(const Sample& s) { return s.response.execute_seconds; }
double queue_seconds(const Sample& s) { return s.response.queue_seconds; }
double latency_seconds(const Sample& s) { return s.latency; }
double late_seconds(const Sample& s) { return s.late; }
double done_seconds(const Sample& s) { return s.done; }
double geometry_seconds(const Sample& s) { return s.response.sequence.front().geometry_seconds; }

}  // namespace

Result run_stream(const Args& args, bool saturated) {
  Result result;

  std::optional<Setup> setup;
  result.set("setup_s", repeated_setup(setup, [&] { return make_setup(args.seed); }), "s");
  result.set("voxel.frame_ms", median(setup->voxel_seconds) * 1e3, "ms");
  result.set("nn.forward_ms", setup->forward_seconds * 1e3, "ms");
  result.set("core.compile_ms", setup->compile_seconds * 1e3, "ms");
  std::fprintf(stderr, "%s: %zu sites in frame 0 of stream 0\n", args.workload.c_str(),
               setup->frames.front().front().size());

  check_pass(*setup, result);

  Player player;
  {
    serve::Client client = setup->server->client();
    for (int t = 0; t < kWarmupFrames; ++t) {
      for (int s = 0; s < kStreams; ++s) {
        const serve::Response r = client
                                      .submit_sequence(static_cast<std::uint64_t>(s),
                                                       {player.next(*setup, s)}, kSubmit)
                                      .get();
        if (!r.ok()) result.fail("warm-up frame failed: " + r.error);
      }
    }
  }

  const auto run_pass = [&] {
    return saturated ? saturated_pass(*setup, player, args.seconds)
                     : paced_pass(*setup, player, args.seconds);
  };
  const obs::CounterGuard arena_grows(sparse::compute_arena_grows_counter());
  const Pass plain = run_pass();
  const std::vector<double> latencies = plain.column(latency_seconds);
  const double slo = saturated ? kSaturatedSloSeconds : kPacedSloSeconds;
  const auto within_slo = std::count_if(latencies.begin(), latencies.end(),
                                        [&](double l) { return l <= slo; });
  const auto attempted = static_cast<double>(plain.samples.size());
  const double frame_s = median(plain.column(execute_seconds));
  result.set("frame_host_s", frame_s, "s");
  result.set("latency_p50_ms", median(latencies) * 1e3, "ms");
  result.set("latency_p95_ms", windowed_quantile(latencies, kWindowFrames, 0.95) * 1e3, "ms");
  result.set("slo_met_frac", static_cast<double>(within_slo) / attempted, "ratio");
  result.set("throughput_fps", windowed_rate(plain.column(done_seconds), kWindowFrames),
             "frames/s");

  std::optional<Pass> traced;
  if (args.trace) {
    obs::TraceSession::clear();
    obs::TraceSession::start();
    traced = run_pass();
    obs::TraceSession::stop();
    write_trace(args, result);
    result.traced_frames = static_cast<std::int64_t>(traced->samples.size());
    result.set("trace.overhead_frac", median(traced->column(execute_seconds)) / frame_s - 1.0,
               "ratio");
  }
  result.set("sparse.compute_arena_grows", static_cast<double>(arena_grows.delta()), "count");

  std::int64_t shed = 0;
  std::int64_t expired = 0;
  std::int64_t failed = 0;
  for (const Pass* pass : {&plain, traced ? &*traced : static_cast<const Pass*>(nullptr)}) {
    if (pass == nullptr) continue;
    result.attempted += static_cast<std::int64_t>(pass->samples.size());
    for (const Sample& s : pass->samples) {
      shed += s.response.status == serve::RequestStatus::kShed ? 1 : 0;
      expired += s.response.status == serve::RequestStatus::kExpired ? 1 : 0;
      failed += s.response.status == serve::RequestStatus::kFailed ? 1 : 0;
      if (s.response.status == serve::RequestStatus::kFailed) {
        result.fail("served frame failed: " + s.response.error);
      }
    }
  }
  result.failed = shed + expired + failed;
  result.set("serve.shed", static_cast<double>(shed), "count");
  result.set("serve.expired", static_cast<double>(expired), "count");
  result.set("serve.failed", static_cast<double>(failed), "count");

  const Pass& layers = traced ? *traced : plain;
  double macs = 0.0;
  double cpu_seconds = 0.0;
  std::size_t patched = 0;
  std::size_t scales = 0;
  for (const Sample& s : layers.samples) {
    if (!s.response.ok()) continue;
    for (const core::LayerRunStats& layer : s.response.report.frames.front().stats.layers) {
      macs += static_cast<double>(layer.mac_ops);
      cpu_seconds += layer.compute_seconds;
    }
    patched += s.response.sequence.front().patched_scales();
    scales += s.response.sequence.front().scales.size();
  }
  const double cpu_layers = median(layers.column(cpu_layer_seconds));
  const double geometry = median(layers.column(geometry_seconds));
  result.set("runtime.cpu_layers_ms", cpu_layers * 1e3, "ms");
  result.set("runtime.cpu_gmacs_per_s", macs / cpu_seconds / 1e9, "GMAC/s");
  result.set("stream.geometry_ms", geometry * 1e3, "ms");
  result.set("stream.patched_scale_frac",
             static_cast<double>(patched) / static_cast<double>(scales), "ratio");
  result.set("serve.queue_wait_p50_ms", median(layers.column(queue_seconds)) * 1e3, "ms");
  result.set("serve.queue_wait_p95_ms", quantile(layers.column(queue_seconds), 0.95) * 1e3,
             "ms");
  const double execute = median(layers.column(execute_seconds));
  result.set("serve.execute_ms", execute * 1e3, "ms");
  result.set("trace.accounted_frac", (geometry + cpu_layers) / execute, "ratio");
  if (!saturated) {
    result.set("loadgen.late_p95_ms", quantile(layers.column(late_seconds), 0.95) * 1e3, "ms");
  }
  return result;
}

}  // namespace esca::e2e
