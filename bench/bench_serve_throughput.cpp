// Serving-layer load generator: pushes a stream of FrameBatch requests
// through esca::serve::Server and reports the latency distribution
// (p50/p95/p99), queue behaviour and throughput.
//
// Two load models:
//   mode=closed  N client threads, each submitting its next request the
//                moment the previous one completes (classic closed loop —
//                concurrency is the knob, arrival rate adapts).
//   mode=open    one generator submitting at a fixed arrival rate
//                (rate=... req/s, 0 = burst everything at once); a full
//                queue sheds, which is the overload behaviour this mode
//                exists to show.
//
// The run is executed twice — once with the obs span tracer off, once with
// it recording — so every invocation also reports the tracer's overhead
// (the closing "tracing:" line). trace=<file> writes the traced
// pass as Chrome trace-event JSON for Perfetto / chrome://tracing;
// max_overhead_pct (default 5) fails the bench when tracing costs more.
//
// Chaos mode: faults=<spec> arms the esca::fault injector (see
// fault/injector.hpp for the spec grammar) for the whole run, retries=N
// wraps closed-loop submissions in a serve::RetryPolicy with N attempts,
// and brownout=1 enables the overload brown-out. The telemetry table then
// reports failed/retried/brownout_sheds so chaos throughput is trackable;
// the tracer-overhead check is skipped (injected delays would drown it).
//
// Usage: bench_serve_throughput [workers=4] [requests=64] [queue=64]
//          [clients=8] [frames=1] [resolution=64] [mode=closed] [rate=0]
//          [backend=esca] [verify=1] [trace=] [max_overhead_pct=5]
//          [faults=] [retries=1] [brownout=0]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "nn/sparse_conv.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);
  const int workers = static_cast<int>(args.get_int("workers", 4));
  const int requests = static_cast<int>(args.get_int("requests", 64));
  const auto queue = static_cast<std::size_t>(args.get_int("queue", 64));
  const int clients = static_cast<int>(args.get_int("clients", 8));
  const int frames = static_cast<int>(args.get_int("frames", 1));
  const int resolution = static_cast<int>(args.get_int("resolution", 64));
  const std::string mode = args.get_string("mode", "closed");
  const double rate = args.get_double("rate", 0.0);
  const bool verify = args.get_bool("verify", true);
  const std::string trace_path = args.get_string("trace", "");
  const double max_overhead_pct = args.get_double("max_overhead_pct", 5.0);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string faults = args.get_string("faults", "");
  const int retries = static_cast<int>(args.get_int("retries", 1));
  const bool brownout = args.get_bool("brownout", false);

  if (mode != "closed" && mode != "open") {
    std::fprintf(stderr, "unknown mode '%s' (want closed|open)\n", mode.c_str());
    return 1;
  }
  if (!faults.empty()) {
#if ESCA_FAULT
    fault::Injector::global().configure(faults);  // armed for the whole run
#else
    std::fprintf(stderr, "faults= ignored: binary built with -DESCA_FAULT=0\n");
#endif
  }

  std::printf("ESCA bench: serve throughput — %d workers, %d requests (%s loop)\n\n", workers,
              requests, mode.c_str());

  // Workload: one 1 -> 8 Sub-Conv layer on a ShapeNet-like sample, compiled
  // once; every worker replica replays the shared Plan.
  const sparse::SparseTensor input = bench::shapenet_tensor(0, resolution);
  Rng rng(bench::kSeed);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 1, 8, 3);
  conv.init_kaiming(rng);

  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue;
  cfg.brownout.enabled = brownout;
  cfg.runtime.backend = runtime::parse_backend_kind(args.get_string("backend", "esca"));
  runtime::Engine compiler{cfg.runtime};
  const runtime::PlanPtr plan =
      runtime::share_plan(compiler.compile_layer(conv, input, {.name = "serve-bench"}));
  std::printf("workload: %zu sites, %lld MACs/frame, %d frame(s)/request\n\n", input.size(),
              static_cast<long long>(plan->total_macs()), frames);

  const serve::SubmitOptions submit{.run = {.verify = verify}};
  const runtime::FrameBatch batch = runtime::FrameBatch::replay(frames);

  // Drive one full load run through a fresh Server; returns wall seconds.
  const auto run_load = [&](serve::Server& server) {
    const auto t0 = std::chrono::steady_clock::now();
    if (mode == "closed") {
      // Closed loop: `clients` threads share the request budget.
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(clients));
      std::atomic<int> remaining{requests};
      serve::RetryPolicy retry_policy;
      retry_policy.max_attempts = retries;
      for (int c = 0; c < clients; ++c) {
        pool.emplace_back([&] {
          serve::Client client = server.client();
          while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
            if (retries > 1) {
              (void)client.submit_with_retry(batch, submit, retry_policy);
            } else {
              (void)client.submit_sync(batch, submit);
            }
          }
        });
      }
      for (std::thread& t : pool) t.join();
    } else {  // open
      serve::Client client = server.client();
      std::vector<std::future<serve::Response>> futures;
      futures.reserve(static_cast<std::size_t>(requests));
      const auto gap = rate > 0.0
                           ? std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(1.0 / rate))
                           : std::chrono::steady_clock::duration::zero();
      auto next = std::chrono::steady_clock::now();
      for (int r = 0; r < requests; ++r) {
        futures.push_back(client.submit(batch, submit));
        if (gap.count() > 0) {
          next += gap;
          std::this_thread::sleep_until(next);
        }
      }
      for (auto& f : futures) (void)f.get();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  // Best-of-`reps` wall time with a fresh Server per rep — scheduler noise
  // on a small run dwarfs the tracer cost, min-of-N filters it out.
  const auto best_of = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      serve::Server server(cfg, plan);
      best = std::min(best, run_load(server));
    }  // the Server drains its workers before the next rep / buffer reads
    return best;
  };

  // Pass 1 — tracer off: the baseline the overhead is measured against
  // (the first rep also doubles as process warmup).
  serve::Server snapshot_server(cfg, plan);
  (void)run_load(snapshot_server);
  const serve::TelemetrySnapshot s = snapshot_server.telemetry_snapshot();
  const double baseline_s = best_of();

  // Pass 2 — tracer recording: same load, spans land in thread buffers.
  obs::TraceSession::clear();
  obs::TraceSession::start();
  const double traced_s = best_of();
  obs::TraceSession::stop();
  const std::size_t trace_events = obs::TraceSession::events_recorded();
  const std::size_t trace_dropped = obs::TraceSession::spans_dropped();
  if (!trace_path.empty()) {
    const std::size_t written = obs::TraceSession::write_json_file(trace_path);
    std::printf("trace: %zu events -> %s (%zu spans dropped)\n\n", written, trace_path.c_str(),
                trace_dropped);
  }

  const double overhead_pct =
      baseline_s > 0.0 ? (traced_s - baseline_s) / baseline_s * 100.0 : 0.0;

  std::fputs(s.table("Serve throughput — " + mode + " loop").c_str(), stdout);

  std::printf("\ntracing: %zu events, %.2f%% overhead vs untraced (best of %d)\n",
              trace_events, overhead_pct, reps);

  // Injected faults and delays would drown the tracer in the comparison, so
  // the overhead check only applies to fault-free runs.
  if (faults.empty() && max_overhead_pct > 0.0 && overhead_pct > max_overhead_pct) {
    std::fprintf(stderr, "FAIL: tracing overhead %.2f%% exceeds max_overhead_pct=%.2f\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}
