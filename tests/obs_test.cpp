// esca::obs tests: registry exactness under concurrency, histogram/quantile
// equivalence with the mutex-guarded LogHistogram, exposition formats, the
// trace-event JSON contract (parses, B/E balanced per thread, args present)
// and the disabled-tracer zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "obs/trace_check.hpp"
#include "serve/telemetry.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "stream/incremental_geometry.hpp"

namespace esca::obs {
namespace {

TEST(ObsRegistryTest, CounterGaugeHistogramRoundTrip) {
  Registry reg;
  Counter& c = reg.counter("test_requests_total", "requests");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);

  Gauge& g = reg.gauge("test_queue_depth", "depth");
  g.set(3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  HistogramMetric& h = reg.histogram("test_latency_seconds", 1e-6, 1e2, 10, "latency");
  h.record(0.001);
  h.record(0.01);
  h.record(0.01);
  EXPECT_EQ(h.total(), 3);
  EXPECT_EQ(reg.size(), 3U);

  // Re-registration returns the same cell; a kind collision throws.
  EXPECT_EQ(&reg.counter("test_requests_total"), &c);
  EXPECT_THROW((void)reg.gauge("test_requests_total"), InvalidArgument);
  EXPECT_THROW((void)reg.histogram("test_latency_seconds", 1e-6, 1e2, 20), InvalidArgument);

  EXPECT_EQ(reg.find_counter("test_requests_total"), &c);
  EXPECT_EQ(reg.find_counter("no_such_metric"), nullptr);
  EXPECT_THROW((void)reg.counter("bad name"), InvalidArgument);
}

TEST(ObsRegistryTest, ThreadedUpdatesAreExact) {
  Registry reg;
  Counter& c = reg.counter("test_bumps_total");
  Gauge& g = reg.gauge("test_accumulator");
  HistogramMetric& h = reg.histogram("test_samples", 1e-6, 1e2, 20);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.record(1e-3 * static_cast<double>(1 + ((t + i) % 7)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Relaxed atomics lose no updates: totals are exact once quiescent.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(h.total(), kThreads * kPerThread);
  EXPECT_EQ(h.snapshot().total(), kThreads * kPerThread);
}

TEST(ObsRegistryTest, HistogramQuantilesMatchLogHistogramExactly) {
  Registry reg;
  HistogramMetric& metric = reg.histogram("test_latency_seconds", 1e-7, 1e3, 20);
  LogHistogram reference(1e-7, 1e3, 20);

  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    // Spread over several decades, plus out-of-range extremes (clamped the
    // same way on both sides).
    const double x = std::pow(10.0, rng.uniform_f(-8.0F, 4.0F));
    metric.record(x);
    reference.add(x);
  }

  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(metric.quantile(q), reference.quantile(q)) << "q=" << q;
  }
}

TEST(ObsRegistryTest, ExpositionFormatsRenderEveryMetric) {
  Registry reg;
  reg.counter("test_requests_total", "total requests").inc(7);
  reg.gauge("test_depth", "queue depth").set(2.0);
  reg.histogram("test_seconds", 1e-6, 1e2, 10, "latency").record(0.25);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE test_requests_total counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_requests_total 7"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE test_depth gauge"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE test_seconds histogram"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_seconds_count 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos) << prom;

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test_requests_total\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_seconds\""), std::string::npos) << json;

  const std::string table = reg.table("metrics");
  EXPECT_NE(table.find("test_requests_total"), std::string::npos) << table;
}

TEST(ObsRegistryTest, CounterGuardScopesBaselines) {
  Registry reg;
  Counter& c = reg.counter("test_guarded_total");
  c.inc(10);
  CounterGuard guard(c);
  EXPECT_EQ(guard.delta(), 0);
  c.inc(3);
  EXPECT_EQ(guard.delta(), 3);
  guard.rebase();
  EXPECT_EQ(guard.delta(), 0);
  c.inc();
  EXPECT_EQ(guard.delta(), 1);
}

TEST(ObsTelemetryTest, RegistryCellsReproduceSnapshotExactly) {
  serve::Telemetry telemetry;
  LogHistogram reference(1e-7, 1e3, 20);  // the serve latency histogram shape

  Rng rng(123);
  for (int i = 0; i < 500; ++i) {
    telemetry.on_submitted();
    const double latency = std::pow(10.0, rng.uniform_f(-5.0F, 0.0F));
    telemetry.on_completed(latency / 4.0, latency, 2,
                           serve::MemoryCounters{100, 3, 1});
    reference.add(latency);
  }
  telemetry.on_shed();
  telemetry.on_shed();
  telemetry.on_expired(/*queue=*/0.25, /*total=*/0.5);
  reference.add(0.5);  // expired requests feed the latency histogram too
  telemetry.on_sequence_frame(3, 1, 0.002);

  const serve::TelemetrySnapshot s = telemetry.snapshot();
  const Registry& reg = telemetry.registry();
  ASSERT_NE(reg.find_counter("esca_serve_completed_total"), nullptr);
  EXPECT_EQ(reg.find_counter("esca_serve_submitted_total")->value(), s.submitted);
  EXPECT_EQ(reg.find_counter("esca_serve_completed_total")->value(), s.completed);
  EXPECT_EQ(reg.find_counter("esca_serve_shed_total")->value(), s.shed);
  EXPECT_EQ(reg.find_counter("esca_serve_expired_total")->value(), s.expired);
  EXPECT_EQ(reg.find_counter("esca_serve_frames_total")->value(), s.frames);
  EXPECT_EQ(reg.find_counter("esca_serve_dram_bytes_total")->value(), s.dram_bytes);
  EXPECT_EQ(reg.find_counter("esca_serve_geometry_patches_total")->value(),
            s.geometry_patches);

  // The registry histogram shares LogHistogram's bucket math, so snapshot
  // quantiles equal a mutex-guarded LogHistogram fed the same samples.
  EXPECT_EQ(s.p50_seconds, reference.quantile(0.50));
  EXPECT_EQ(s.p95_seconds, reference.quantile(0.95));
  EXPECT_EQ(s.p99_seconds, reference.quantile(0.99));
  const HistogramMetric* hist = reg.find_histogram("esca_serve_request_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->quantile(0.99), s.p99_seconds);
}

TEST(ObsGlobalCountersTest, ProductShimsAreRegistryBacked) {
  // The migrated process-wide counters are cells in Registry::global().
  // (Touch each accessor first: registration is lazy, and gtest may
  // evaluate EXPECT_EQ arguments in either order.)
  const Counter* cells[] = {&sparse::geometry_builds_counter(),
                            &sparse::geometry_transposes_counter(),
                            &sparse::compute_arena_grows_counter(),
                            &stream::stream_geometry_patches_counter(),
                            &stream::stream_geometry_rebuilds_counter()};
  Registry& reg = Registry::global();
  EXPECT_EQ(cells[0], reg.find_counter("esca_geometry_builds_total"));
  EXPECT_EQ(cells[1], reg.find_counter("esca_geometry_transposes_total"));
  EXPECT_EQ(cells[2], reg.find_counter("esca_compute_arena_grows_total"));
  EXPECT_EQ(cells[3], reg.find_counter("esca_stream_geometry_patches_total"));
  EXPECT_EQ(cells[4], reg.find_counter("esca_stream_geometry_rebuilds_total"));

  CounterGuard builds(sparse::geometry_builds_counter());
  sparse::geometry_builds_counter().inc(0);  // no-op bump keeps totals intact
  EXPECT_EQ(builds.delta(), 0);
}

#if ESCA_OBS

TEST(ObsTraceTest, SpansProduceWellFormedNestedTraceJson) {
  TraceSession::clear();
  TraceSession::start();

  {
    Span outer("test.outer");
    outer.arg("frame", 7);
    outer.arg("kind", "unit-test");
    {
      Span inner("test.inner");
      inner.arg("depth", 2);
    }
    // A retroactive interval that began before this scope even opened —
    // exactly the queue-wait shape ('X' events may overlap scoped spans).
    const auto t1 = std::chrono::steady_clock::now();
    const auto t0 = t1 - std::chrono::microseconds(50);
    emit_span("test.retro", t0, t1);
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 100; ++i) {
        Span span("test.worker");
        span.arg("thread", t);
        Span nested("test.nested");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  TraceSession::stop();
  std::ostringstream os;
  const std::size_t written = TraceSession::write_json(os);
  // outer B/E + inner B/E + retro X on the main thread, two B/E spans per
  // worker iteration.
  EXPECT_GE(written, 5U + kThreads * 400U);

  const TraceCheckResult check = check_trace_json(os.str());
  EXPECT_TRUE(check.ok) << check.summary();
  EXPECT_EQ(check.events, written);
  // Main thread + the four workers (threads from earlier tests may add more).
  EXPECT_GE(check.threads, static_cast<std::size_t>(kThreads) + 1U);
  EXPECT_GE(check.max_depth, 2U);
  EXPECT_GT(check.args_seen, 0U);
  TraceSession::clear();
  EXPECT_EQ(TraceSession::events_recorded(), 0U);
}

TEST(ObsTraceTest, DisabledTracingRecordsNothingAndAllocatesNoBuffers) {
  TraceSession::stop();
  TraceSession::clear();
  const std::size_t buffers_before = TraceSession::buffers_allocated();

  // Spans on a fresh thread: with tracing disabled, the thread must not
  // even allocate its trace buffer (the zero-allocation contract mirrors
  // the compute-arena steady-state test).
  std::thread([] {
    for (int i = 0; i < 1000; ++i) {
      Span span("test.disabled");
      span.arg("i", i);
      EXPECT_FALSE(span.recording());
    }
  }).join();

  EXPECT_EQ(TraceSession::buffers_allocated(), buffers_before)
      << "a disabled tracer must not allocate per-thread buffers";
  EXPECT_EQ(TraceSession::events_recorded(), 0U);
}

TEST(ObsTraceTest, StopFreezesRecordingButKeepsEvents) {
  TraceSession::clear();
  TraceSession::start();
  { Span span("test.kept"); }
  TraceSession::stop();
  const std::size_t recorded = TraceSession::events_recorded();
  EXPECT_GE(recorded, 2U);
  { Span span("test.after-stop"); }
  EXPECT_EQ(TraceSession::events_recorded(), recorded);
  TraceSession::clear();
}

#endif  // ESCA_OBS

TEST(ObsTraceCheckTest, RejectsMalformedTraces) {
  EXPECT_FALSE(check_trace_json("not json").ok);
  EXPECT_FALSE(check_trace_json("{}").ok);
  EXPECT_FALSE(check_trace_json(R"({"traceEvents": 3})").ok);
  // Unbalanced: B without E.
  EXPECT_FALSE(
      check_trace_json(R"({"traceEvents":[{"name":"a","ph":"B","ts":1,"tid":1}]})").ok);
  // E closes a span with a different name.
  EXPECT_FALSE(check_trace_json(R"({"traceEvents":[
      {"name":"a","ph":"B","ts":1,"tid":1},
      {"name":"b","ph":"E","ts":2,"tid":1}]})")
                   .ok);
  // Time goes backwards within a tid.
  EXPECT_FALSE(check_trace_json(R"({"traceEvents":[
      {"name":"a","ph":"B","ts":5,"tid":1},
      {"name":"a","ph":"E","ts":1,"tid":1}]})")
                   .ok);

  const TraceCheckResult ok = check_trace_json(R"({"traceEvents":[
      {"name":"a","ph":"B","ts":1,"tid":1,"args":{"k":1}},
      {"name":"b","ph":"B","ts":2,"tid":1},
      {"name":"b","ph":"E","ts":3,"tid":1},
      {"name":"a","ph":"E","ts":4,"tid":1},
      {"name":"c","ph":"X","ts":1,"tid":2,"dur":5}]})");
  EXPECT_TRUE(ok.ok) << ok.summary();
  EXPECT_EQ(ok.events, 5U);
  EXPECT_EQ(ok.threads, 2U);
  EXPECT_EQ(ok.max_depth, 2U);
  EXPECT_EQ(ok.args_seen, 1U);
}

}  // namespace
}  // namespace esca::obs
