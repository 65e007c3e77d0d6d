// Serving demo: the LiDAR pipeline (paper Fig. 1) behind esca::serve.
//
// A fleet of simulated LiDAR sensors streams sweeps at a shared
// accelerator: one compiled Plan, a pool of worker Sessions, a bounded
// queue with admission control, and per-request deadlines for the
// latency-critical sensors. A second segment re-observes the scene with
// ego-motion and submits it as sticky streams — every request of one
// stream id lands on the worker that owns the stream's incremental
// geometry. Prints the per-layer accelerator report of one response (the
// usual core/report pathway) plus the serving telemetry.
//
// Observability: trace=<file> records the whole run with the obs span
// tracer and writes Chrome trace-event JSON (open in
// https://ui.perfetto.dev or chrome://tracing — nested enqueue/queue-wait/
// request/frame/layer/patch spans per worker). metrics=prometheus|json|
// table dumps the server's metrics registry in that exposition format.
//
// Build & run:  ./build/examples/serve_demo [workers=3] [sensors=4]
//               [sweeps=6] [timeout_ms=0] [streams=2] [trace=] [metrics=]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/report.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/sequence.hpp"
#include "nn/sparse_conv.hpp"
#include "obs/obs.hpp"
#include "pointcloud/point_cloud.hpp"
#include "serve/serve.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): example main

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);
  const int workers = static_cast<int>(args.get_int("workers", 3));
  const int sensors = static_cast<int>(args.get_int("sensors", 4));
  const int sweeps = static_cast<int>(args.get_int("sweeps", 6));
  const double timeout_ms = args.get_double("timeout_ms", 0.0);
  const int streams = static_cast<int>(args.get_int("streams", 2));
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics = args.get_string("metrics", "");

  if (!trace_path.empty()) obs::TraceSession::start();

  // One representative sweep defines the scene geometry the Plan is
  // calibrated on (steady-state replay, like the paper's batch evaluation).
  Rng rng(99);
  const datasets::NyuLikeDataset ds({}, 7);
  pc::PointCloud cloud = ds.sample(0);
  cloud.normalize_unit_cube();
  const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = 96});
  const auto input = sparse::SparseTensor::from_voxel_grid(grid, 1);
  std::printf("scene: %zu points -> %zu sites (%.4f%% density)\n", cloud.size(), input.size(),
              100.0 * static_cast<double>(input.size()) /
                  static_cast<double>(grid.extent.volume()));

  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 8, 3);
  conv.init_kaiming(rng);

  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = static_cast<std::size_t>(2 * sensors);
  runtime::Engine compiler{cfg.runtime};
  const runtime::PlanPtr plan =
      runtime::share_plan(compiler.compile_layer(conv, input, {.relu = true, .name = "lidar"}));
  serve::Server server(cfg, plan);
  std::printf("server: %d workers over one shared Plan (%zu-entry queue)\n\n", workers,
              cfg.queue_capacity);

  // Each sensor is a closed-loop client: next sweep when the last returned.
  // Odd sensors are latency-critical and set a deadline.
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(sensors));
  std::vector<serve::Response> last(static_cast<std::size_t>(sensors));
  for (int sensor = 0; sensor < sensors; ++sensor) {
    fleet.emplace_back([&, sensor] {
      serve::Client client = server.client();
      serve::SubmitOptions options;
      options.priority = sensor % 2;  // odd sensors preempt even ones
      if (timeout_ms > 0.0 && sensor % 2 == 1) options.timeout_seconds = timeout_ms * 1e-3;
      options.run.keep_outputs = false;
      for (int sweep = 0; sweep < sweeps; ++sweep) {
        last[static_cast<std::size_t>(sensor)] = client.submit_sync(
            runtime::FrameBatch::single(str::format("s%d.sweep%d", sensor, sweep)), options);
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  for (int sensor = 0; sensor < sensors; ++sensor) {
    const serve::Response& r = last[static_cast<std::size_t>(sensor)];
    std::printf("sensor %d last sweep: %-7s worker=%d queue=%.3f ms total=%.3f ms\n", sensor,
                serve::to_string(r.status), r.worker_id, r.queue_seconds * 1e3,
                r.total_seconds * 1e3);
  }

  // The Response's RunReport feeds the existing core/report pathway.
  for (const serve::Response& r : last) {
    if (!r.ok()) continue;
    std::printf("\n%s\n", core::layer_report_table(r.report.merged_stats(),
                                                   "One served sweep (per-layer)")
                              .c_str());
    break;
  }

  // Part 2 — sticky streams: the sensor re-observes the scene with slight
  // ego-motion; each stream's frames patch the previous frame's geometry
  // on the one worker that owns the stream (stream id % workers).
  if (streams > 0) {
    // Slow ego-motion: voxel churn per frame stays well under the patch
    // fallback threshold, so steady-state frames patch instead of rebuild.
    datasets::SequenceConfig seq;
    seq.frames = sweeps;
    seq.yaw_per_frame = 0.001F;
    seq.translation_per_frame = {0.0005F, 0.0F, 0.0F};
    seq.resample_fraction = 0.01F;
    const datasets::SequenceDataset sensor(cloud, seq, 7);
    std::vector<sparse::SparseTensor> sequence;
    sequence.reserve(static_cast<std::size_t>(sweeps));
    for (int t = 0; t < sweeps; ++t) {
      sequence.push_back(sparse::SparseTensor::from_voxel_grid(
          voxel::voxelize(sensor.frame(t), {.resolution = 96}), 1));
    }

    std::printf("\nsticky streams: %d stream(s) x %d frame(s), worker = stream id %% %d\n",
                streams, sweeps, workers);
    std::vector<std::thread> stream_fleet;
    stream_fleet.reserve(static_cast<std::size_t>(streams));
    for (int sid = 0; sid < streams; ++sid) {
      stream_fleet.emplace_back([&, sid] {
        serve::Client client = server.client();
        for (const sparse::SparseTensor& frame : sequence) {
          (void)client.submit_sequence(static_cast<std::uint64_t>(sid), {frame}, {}).get();
        }
      });
    }
    for (std::thread& t : stream_fleet) t.join();
  }

  std::printf("\n%s\n", server.telemetry_snapshot().table("Serving telemetry").c_str());

  if (metrics == "prometheus") {
    std::fputs(server.telemetry().registry().to_prometheus().c_str(), stdout);
  } else if (metrics == "json") {
    std::printf("%s\n", server.telemetry().registry().to_json().c_str());
  } else if (metrics == "table") {
    std::printf("%s\n", server.telemetry().registry().table("Serve metrics registry").c_str());
    std::printf("%s\n", obs::Registry::global().table("Process metrics registry").c_str());
  } else if (!metrics.empty()) {
    std::fprintf(stderr, "unknown metrics format '%s' (want prometheus|json|table)\n",
                 metrics.c_str());
    return 1;
  }

  if (!trace_path.empty()) {
    obs::TraceSession::stop();
    const std::size_t written = obs::TraceSession::write_json_file(trace_path);
    std::printf("trace: %zu events -> %s (%zu spans dropped; open in https://ui.perfetto.dev)\n",
                written, trace_path.c_str(), obs::TraceSession::spans_dropped());
  }
  return 0;
}
