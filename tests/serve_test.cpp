// esca::serve tests: the bounded priority queue, telemetry aggregation, and
// the Server's concurrency contract — N clients over a worker pool return
// bit-identical outputs to a sequential Session over the same Plan, full
// queues shed with a distinct status, and deadline-expired requests never
// execute. ServeStressTest is the ThreadSanitizer workload CI runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "nn/sparse_conv.hpp"
#include "runtime/engine.hpp"
#include "serve/serve.hpp"
#include "sparse/geometry.hpp"
#include "stream/sequence_session.hpp"
#include "test_util.hpp"

namespace esca::serve {
namespace {

using runtime::FrameBatch;
using runtime::RunOptions;

/// A small single-layer Plan shared by every test (fast enough for dozens
/// of concurrent executions on the cycle simulator).
runtime::PlanPtr small_plan() {
  Rng rng(411);
  const auto x = test::clustered_tensor({16, 16, 16}, 2, rng, 4, 100);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 4, 3);
  conv.init_kaiming(rng);
  runtime::Engine engine;
  return runtime::share_plan(engine.compile_layer(conv, x, {.relu = true, .name = "serve"}));
}

TEST(ServeQueueTest, PopsHighestPriorityFifoWithinPriority) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1, /*priority=*/0));
  EXPECT_TRUE(q.try_push(2, /*priority=*/5));
  EXPECT_TRUE(q.try_push(3, /*priority=*/5));
  EXPECT_TRUE(q.try_push(4, /*priority=*/-1));
  EXPECT_EQ(q.depth(), 4U);
  EXPECT_EQ(q.pop(), 2);  // highest priority first
  EXPECT_EQ(q.pop(), 3);  // FIFO within a priority
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 4);
}

TEST(ServeQueueTest, FullQueueRejectsAndCloseDrains) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // admission control: full queue sheds
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed queue sheds too
  EXPECT_EQ(q.pop(), 1);        // backlog drains after close
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(ServeQueueTest, OrderKeyEnforcesPushOrderAcrossPolicies) {
  // Items of one order key drain strictly FIFO even when a later item has
  // a higher priority (the per-stream guarantee).
  BoundedQueue<int> fifo(8);
  EXPECT_TRUE(fifo.try_push(1, PushInfo{.priority = 0, .order_key = 7}));
  EXPECT_TRUE(fifo.try_push(2, PushInfo{.priority = 9, .order_key = 7}));
  EXPECT_TRUE(fifo.try_push(3, PushInfo{.priority = 5}));
  EXPECT_EQ(fifo.pop(), 3);  // highest *eligible* priority
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_EQ(fifo.pop(), 2);
}

TEST(ServeQueueTest, AffinityPinsItemsToConsumer) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1, PushInfo{.priority = 9, .affinity = 2}));
  EXPECT_TRUE(q.try_push(2, PushInfo{}));
  EXPECT_TRUE(q.try_push(3, PushInfo{.affinity = 0}));
  // Consumer 0 skips the item pinned to 2, even though it outranks all.
  EXPECT_EQ(q.pop(0), 2);
  EXPECT_EQ(q.pop(0), 3);
  EXPECT_EQ(q.pop(2), 1);
  // An affinity-blind pop (the shutdown drain) takes anything.
  EXPECT_TRUE(q.try_push(4, PushInfo{.affinity = 5}));
  EXPECT_EQ(q.pop(), 4);
}

TEST(ServeTelemetryTest, LogHistogramQuantilesBracketSamples) {
  LogHistogram h(1e-6, 10.0, 20);
  for (int i = 0; i < 90; ++i) h.add(1e-3);  // 90% at ~1 ms
  for (int i = 0; i < 10; ++i) h.add(1e-1);  // 10% at ~100 ms
  EXPECT_EQ(h.total(), 100);
  EXPECT_NEAR(h.quantile(0.5), 1e-3, 0.3e-3);
  EXPECT_NEAR(h.quantile(0.99), 1e-1, 0.3e-1);
  EXPECT_LT(h.quantile(0.5), h.quantile(0.99));
}

TEST(ServeTelemetryTest, CountersAndSnapshotsAggregate) {
  Telemetry t;
  t.on_submitted();
  t.on_submitted();
  t.on_submitted();
  t.on_completed(/*queue=*/0.001, /*total=*/0.004, /*frames=*/2);
  t.on_shed();
  // Every terminal outcome feeds both aggregates: expired requests
  // contribute their queue wait AND their end-to-end latency.
  t.on_expired(/*queue=*/0.010, /*total=*/0.012);
  t.sample_queue_depth(3);
  t.sample_queue_depth(1);

  const TelemetrySnapshot s = t.snapshot();
  EXPECT_EQ(s.submitted, 3);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.frames, 2);
  EXPECT_NEAR(s.mean_seconds, (0.004 + 0.012) / 2.0, 1e-9);
  EXPECT_NEAR(s.mean_queue_seconds, (0.001 + 0.010) / 2.0, 1e-9);
  EXPECT_NEAR(s.mean_queue_depth, 2.0, 1e-9);
  EXPECT_GT(s.p50_seconds, 0.0);
  EXPECT_FALSE(s.table("telemetry").empty());
}

TEST(ServeServerTest, ConcurrentClientsBitIdenticalToSequentialSession) {
  const runtime::PlanPtr plan = small_plan();

  // Sequential reference: one Session, same batches.
  runtime::Engine engine;
  runtime::Session session = engine.open_session(plan);
  const RunOptions keep{.verify = true, .keep_outputs = true};
  const runtime::RunReport reference = session.submit(FrameBatch::replay(2), keep);

  ServerConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  Server server(cfg, plan);

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 4;
  std::vector<std::future<Response>> futures(kClients * kRequestsPerClient);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = server.client();
      for (int r = 0; r < kRequestsPerClient; ++r) {
        futures[static_cast<std::size_t>(c * kRequestsPerClient + r)] =
            client.submit(FrameBatch::replay(2), {.run = keep});
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const obs::CounterGuard builds(sparse::geometry_builds_counter());
  for (auto& future : futures) {
    const Response response = future.get();
    ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
    ASSERT_GE(response.worker_id, 0);
    ASSERT_EQ(response.report.frames.size(), reference.frames.size());
    for (std::size_t f = 0; f < reference.frames.size(); ++f) {
      const auto& got = response.report.frames[f].outputs;
      const auto& want = reference.frames[f].outputs;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t l = 0; l < want.size(); ++l) {
        EXPECT_TRUE(got[l] == want[l]) << "frame " << f << " layer " << l;
      }
    }
  }
  // Every worker replayed the Plan-cached geometry — zero rebuilds.
  EXPECT_EQ(builds.delta(), 0);

  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(s.shed, 0);
  EXPECT_EQ(s.frames, kClients * kRequestsPerClient * 2);
  EXPECT_GT(s.p50_seconds, 0.0);
  EXPECT_LE(s.p50_seconds, s.p99_seconds);
}

TEST(ServeServerTest, QueueFullRequestsShedWithDistinctStatus) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;  // nothing drains until start()
  Server server(cfg, small_plan());

  auto a = server.submit(FrameBatch::single("a"));
  auto b = server.submit(FrameBatch::single("b"));
  auto c = server.submit(FrameBatch::single("c"));  // queue full -> shed now

  EXPECT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response shed = c.get();
  EXPECT_EQ(shed.status, RequestStatus::kShed);
  EXPECT_EQ(shed.worker_id, -1);
  EXPECT_TRUE(shed.report.frames.empty());
  EXPECT_STREQ(to_string(shed.status), "shed");

  server.start();
  EXPECT_EQ(a.get().status, RequestStatus::kOk);
  EXPECT_EQ(b.get().status, RequestStatus::kOk);

  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.submitted, 3);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.shed, 1);
}

TEST(ServeServerTest, DeadlineExpiredRequestsNeverExecute) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.start_paused = true;
  Server server(cfg, small_plan());

  auto doomed = server.submit(FrameBatch::single("doomed"), {.timeout_seconds = 1e-4});
  auto healthy = server.submit(FrameBatch::single("healthy"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let the deadline pass
  server.start();

  const Response expired = doomed.get();
  EXPECT_EQ(expired.status, RequestStatus::kExpired);
  EXPECT_EQ(expired.worker_id, -1);          // no worker ever ran it
  EXPECT_TRUE(expired.report.frames.empty());
  EXPECT_EQ(expired.execute_seconds, 0.0);
  EXPECT_GT(expired.queue_seconds, 0.0);

  EXPECT_EQ(healthy.get().status, RequestStatus::kOk);

  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.completed, 1);
}

TEST(ServeServerTest, ShutdownDrainsBacklogAndNeverStartedServerSheds) {
  const runtime::PlanPtr plan = small_plan();
  std::future<Response> pending;
  {
    ServerConfig cfg;
    cfg.workers = 2;
    Server server(cfg, plan);
    pending = server.submit(FrameBatch::single("late"));
    // Destructor shuts down: the backlog drains before workers exit.
  }
  EXPECT_EQ(pending.get().status, RequestStatus::kOk);

  std::future<Response> never_run;
  {
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.start_paused = true;
    Server server(cfg, plan);
    never_run = server.submit(FrameBatch::single("orphan"));
  }
  // No worker ever started: the promise still resolves (shed, not broken).
  EXPECT_EQ(never_run.get().status, RequestStatus::kShed);

  // A shut-down server cannot be restarted (its workers are gone).
  ServerConfig paused;
  paused.workers = 1;
  paused.start_paused = true;
  Server dead(paused, plan);
  dead.shutdown();
  EXPECT_THROW(dead.start(), InvalidArgument);
}

TEST(ServeServerTest, RejectsBadConfiguration) {
  const runtime::PlanPtr plan = small_plan();
  ServerConfig cfg;
  cfg.workers = 0;
  EXPECT_THROW((void)Server(cfg, plan), InvalidArgument);
  cfg.workers = 1;
  EXPECT_THROW((void)Server(cfg, runtime::PlanPtr{}), InvalidArgument);
  EXPECT_THROW((void)Server(cfg, runtime::Plan{}), InvalidArgument);
  cfg.queue_capacity = 0;
  EXPECT_THROW((void)Server(cfg, plan), InvalidArgument);
}

TEST(ServeServerTest, MultiFrameRequestExpiresMidBatchWithPartialReport) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg, small_plan());
  Client client = server.client();

  // The deadline is generous against queue wait (the single worker is idle)
  // but far shorter than the whole batch. If a machine is fast enough to
  // finish the batch inside the deadline, grow the batch and try again —
  // each completed attempt costs less than the deadline by construction.
  std::size_t frames = 200;
  for (int attempt = 0; attempt < 6; ++attempt, frames *= 4) {
    const Response r = client.submit_sync(
        runtime::FrameBatch::replay(static_cast<int>(frames)), {.timeout_seconds = 0.1});
    if (r.status == RequestStatus::kOk) continue;
    ASSERT_EQ(r.status, RequestStatus::kExpired) << r.error;
    // An oversubscribed runner can blow the whole deadline before pickup
    // (worker_id -1, zero frames) — that's the queue-expiry path, not the
    // one under test; retry.
    if (r.report.frames.empty()) continue;
    // Expired between frames: at least one ran, and not all of them did.
    EXPECT_GE(r.worker_id, 0);
    EXPECT_LT(r.report.frames.size(), frames);
    EXPECT_GT(r.execute_seconds, 0.0);
    EXPECT_GE(server.telemetry_snapshot().expired, 1);
    return;
  }
  FAIL() << "no attempt expired mid-batch (all completed or expired at pickup)";
}

/// Small frames for sequence requests: a drifting cluster, frame t keeps
/// most of frame t-1's sites.
std::vector<sparse::SparseTensor> drifting_frames(int frames, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sparse::SparseTensor> out;
  sparse::SparseTensor base = test::clustered_tensor({20, 20, 20}, 1, rng, 6, 300);
  for (int t = 0; t < frames; ++t) {
    sparse::SparseTensor frame({20, 20, 20}, 1);
    for (std::size_t r = 0; r < base.size(); ++r) {
      if (rng.bernoulli(0.05)) continue;  // ~5% churn per frame
      frame.add_site(base.coord(r));
    }
    out.push_back(frame.zeros_like(1));
  }
  return out;
}

TEST(ServeSequenceTest, StickyStreamsStayOnOneWorkerAndCarryState) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.sequence.scales = 2;
  cfg.sequence.rebuild_fraction = 2.0;
  Server server(cfg, small_plan());
  Client client = server.client();

  constexpr int kStreams = 3;
  constexpr int kRequestsPerStream = 4;
  std::vector<std::vector<Response>> responses(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    const auto frames = drifting_frames(kRequestsPerStream, 100 + static_cast<std::uint64_t>(s));
    for (int r = 0; r < kRequestsPerStream; ++r) {
      // One frame per request: state must persist BETWEEN requests for the
      // later frames to patch.
      responses[static_cast<std::size_t>(s)].push_back(
          client.submit_sequence(static_cast<std::uint64_t>(s), {frames[static_cast<std::size_t>(r)]})
              .get());
    }
  }

  for (int s = 0; s < kStreams; ++s) {
    const auto& stream_responses = responses[static_cast<std::size_t>(s)];
    const int owner = server.stream_owner(static_cast<std::uint64_t>(s));
    ASSERT_GE(owner, 0);
    for (int r = 0; r < kRequestsPerStream; ++r) {
      const Response& response = stream_responses[static_cast<std::size_t>(r)];
      ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
      // Sticky: every request of the stream ran on the pinned worker.
      EXPECT_EQ(response.worker_id, owner) << "stream " << s << " request " << r;
      ASSERT_EQ(response.sequence.size(), 1U);
      ASSERT_EQ(response.report.frames.size(), 1U);
      const stream::SequenceFrameStats& stats = response.sequence.front();
      ASSERT_EQ(stats.scales.size(), 2U);
      // The first request of a stream cold-builds; every later one patches
      // — proof the SequenceSession state survived across requests.
      EXPECT_EQ(stats.patched_scales(), r == 0 ? 0U : 2U)
          << "stream " << s << " request " << r;
    }
  }
  // Stateless assignment (id mod workers) spreads these streams over
  // distinct workers.
  EXPECT_NE(server.stream_owner(0), server.stream_owner(1));
}

TEST(ServeSequenceTest, StreamStateIsBoundedAndEvictionColdBuilds) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_streams_per_worker = 1;  // any second stream evicts the first
  cfg.sequence.rebuild_fraction = 2.0;
  Server server(cfg, small_plan());
  Client client = server.client();
  const auto frames = drifting_frames(1, 55);

  auto patched = [&](std::uint64_t stream_id) {
    const Response r = client.submit_sequence(stream_id, {frames.front()}).get();
    ESCA_CHECK(r.status == RequestStatus::kOk, "request failed: " << r.error);
    return r.sequence.front().patched_scales() > 0;
  };

  EXPECT_FALSE(patched(1));  // fresh stream cold-builds
  EXPECT_TRUE(patched(1));   // same stream, state carried
  EXPECT_FALSE(patched(2));  // second stream evicts stream 1's state...
  EXPECT_FALSE(patched(1));  // ...so stream 1 cold-builds again
  // Routing is stateless (id mod workers): eviction only drops worker-side
  // geometry state, never the stream -> worker mapping.
  EXPECT_EQ(server.stream_owner(1), 0);
  EXPECT_EQ(server.stream_owner(2), 0);
}

TEST(ServeSequenceTest, SequenceRequestsRejectEmptyFrames) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg, small_plan());
  EXPECT_THROW((void)server.submit_sequence(1, {}), InvalidArgument);
  EXPECT_THROW(
      (void)server.submit_sequence(std::numeric_limits<std::uint64_t>::max(), {}),
      InvalidArgument);
}

TEST(ServeStressTest, ManyClientsManyWorkersStayBitExact) {
  // The ThreadSanitizer workload: heavy concurrent submission with verify
  // enabled, so every frame is checked bit-exactly against the integer gold
  // model while 4 worker Sessions share one Plan.
  const runtime::PlanPtr plan = small_plan();
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  Server server(cfg, plan);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = server.client();
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const Response response = client.submit_sync(
            FrameBatch::single(str::format("c%dr%d", c, r)),
            {.priority = r % 3, .run = {.verify = true}});
        ESCA_CHECK(response.status == RequestStatus::kOk, "stress request failed: "
                                                              << response.error);
        ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);

  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(s.shed + s.expired + s.failed, 0);
  EXPECT_GT(s.requests_per_second, 0.0);
}

TEST(ServeStressTest, ConcurrentStickyStreamsWithShardedPatching) {
  // ThreadSanitizer workload for the parallel stream path: several client
  // threads each drive their own sticky stream while every worker's
  // SequenceSession shards the frame diff and the geometry patch across an
  // intra-frame worker fan-out — nested parallelism over one shared Plan.
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 256;
  cfg.sequence.scales = 2;
  cfg.sequence.rebuild_fraction = 2.0;
  cfg.sequence.geometry.shards = 2;  // explicit: force the sharded patch
  Server server(cfg, small_plan());

  constexpr int kStreams = 4;
  constexpr int kFramesPerStream = 5;
  const int expect_shards = 2;
  std::atomic<int> patched_frames{0};
  std::vector<std::thread> clients;
  clients.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    clients.emplace_back([&, s] {
      Client client = server.client();
      const auto frames =
          drifting_frames(kFramesPerStream, 700 + static_cast<std::uint64_t>(s));
      for (int f = 0; f < kFramesPerStream; ++f) {
        const Response r =
            client
                .submit_sequence(static_cast<std::uint64_t>(s),
                                 {frames[static_cast<std::size_t>(f)]})
                .get();
        ESCA_CHECK(r.status == RequestStatus::kOk, "sequence request failed: " << r.error);
        ESCA_CHECK(r.sequence.size() == 1U, "expected stats for exactly one frame");
        const stream::SequenceFrameStats& stats = r.sequence.front();
        if (stats.patched_scales() > 0) {
          patched_frames.fetch_add(1, std::memory_order_relaxed);
          ESCA_CHECK(stats.max_shards() == expect_shards,
                     "patched frame fanned out to " << stats.max_shards() << " shards, want "
                                                    << expect_shards);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Every frame past the first of each stream patched (state carried, churn
  // below the fallback threshold).
  EXPECT_EQ(patched_frames.load(), kStreams * (kFramesPerStream - 1));

  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.completed, kStreams * kFramesPerStream);
  EXPECT_EQ(s.shed + s.expired + s.failed, 0);
  EXPECT_EQ(s.geometry_patches,
            static_cast<std::int64_t>(kStreams * (kFramesPerStream - 1) * cfg.sequence.scales));
  EXPECT_EQ(s.geometry_rebuilds, static_cast<std::int64_t>(kStreams * cfg.sequence.scales));
  EXPECT_GT(s.patch_p95_seconds, 0.0);
}

}  // namespace
}  // namespace esca::serve
