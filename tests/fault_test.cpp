// esca::fault chaos harness. Three layers of coverage:
//
//   1. Injector semantics — spec parsing, deterministic counter-hash
//      firing (same seed + schedule => identical fire sequence), pattern
//      specificity, one-shot/nth/max schedules, malformed-spec rejection.
//   2. Serve robustness primitives in isolation — stream quarantine after
//      a mid-patch fault, worker death + supervisor respawn, retry
//      policies (deterministic backoff, deadline awareness), brown-out
//      entry/shed/recovery.
//   3. The chaos invariant — with EVERY site armed at p=0.05, several
//      seeds and >= 4 client threads: no request hangs or is dropped,
//      every request reaches exactly one terminal status, and every kOk
//      response is bit-identical to a fault-free run.
//
// Retry and brown-out tests that need no injected faults sit outside the
// ESCA_FAULT guard, so the -DESCA_FAULT=0 CI build still exercises them.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "nn/sparse_conv.hpp"
#include "obs/obs.hpp"
#include "runtime/engine.hpp"
#include "serve/serve.hpp"
#include "test_util.hpp"

namespace esca::serve {
namespace {

using runtime::FrameBatch;
using runtime::RunOptions;

/// A small single-layer Plan (the serve_test workload).
runtime::PlanPtr chaos_plan() {
  Rng rng(911);
  const auto x = test::clustered_tensor({16, 16, 16}, 2, rng, 4, 100);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 4, 3);
  conv.init_kaiming(rng);
  runtime::Engine engine;
  return runtime::share_plan(engine.compile_layer(conv, x, {.relu = true, .name = "chaos"}));
}

/// Drifting clustered frames: frame t keeps ~95% of frame t-1's sites, so
/// sequence requests exercise both the diff/patch path and real churn.
std::vector<sparse::SparseTensor> drifting_frames(int frames, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sparse::SparseTensor> out;
  sparse::SparseTensor base = test::clustered_tensor({20, 20, 20}, 1, rng, 6, 300);
  for (int t = 0; t < frames; ++t) {
    sparse::SparseTensor frame({20, 20, 20}, 1);
    for (std::size_t r = 0; r < base.size(); ++r) {
      if (rng.bernoulli(0.05)) continue;
      frame.add_site(base.coord(r));
    }
    out.push_back(frame.zeros_like(1));
  }
  return out;
}

TEST(RetryPolicyTest, BackoffIsDeterministicBoundedAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.010;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.050;
  policy.jitter = 0.25;
  policy.seed = 42;
  for (int k = 1; k <= 8; ++k) {
    const double b = policy.backoff_seconds(k);
    // Same (policy, attempt) => bit-identical backoff, every time.
    EXPECT_EQ(b, policy.backoff_seconds(k)) << "attempt " << k;
    const double base = std::min(0.010 * std::pow(2.0, k - 1), 0.050);
    EXPECT_LE(b, base) << "attempt " << k;
    EXPECT_GT(b, base * (1.0 - policy.jitter)) << "attempt " << k;
  }
  // Distinct seeds decorrelate the jitter.
  RetryPolicy other = policy;
  other.seed = 43;
  EXPECT_NE(policy.backoff_seconds(1), other.backoff_seconds(1));
}

TEST(RetryPolicyTest, RetryableStatusesAreShedAndFailedOnly) {
  const RetryPolicy policy;
  EXPECT_TRUE(policy.retryable(RequestStatus::kShed));
  EXPECT_TRUE(policy.retryable(RequestStatus::kFailed));
  EXPECT_FALSE(policy.retryable(RequestStatus::kOk));
  // kExpired means the request's own deadline passed — retrying could only
  // violate it further.
  EXPECT_FALSE(policy.retryable(RequestStatus::kExpired));
}

TEST(RetryPolicyTest, ValidateRejectsGarbage) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy = {};
  policy.backoff_multiplier = 0.5;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy = {};
  policy.jitter = 1.0;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy = {};
  policy.max_backoff_seconds = 0.0;
  policy.initial_backoff_seconds = 1.0;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  EXPECT_THROW((void)policy.backoff_seconds(0), InvalidArgument);
}

TEST(ServeRetryTest, ShedRequestsRetryUntilCapacityFrees) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.start_paused = true;
  Server server(cfg, chaos_plan());
  Client client = server.client();

  auto first = server.submit(FrameBatch::single("hold"));  // fills the queue
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_seconds = 0.005;
  policy.max_backoff_seconds = 0.005;
  // Start the server mid-retry: the held request drains, capacity frees,
  // and a later attempt is admitted.
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.start();
  });
  const RetryResult result = client.submit_with_retry(FrameBatch::single("retry"), {}, policy);
  starter.join();
  EXPECT_EQ(result.response.status, RequestStatus::kOk) << result.response.error;
  EXPECT_GT(result.attempts, 1);  // at least one attempt was shed
  EXPECT_EQ(result.backoffs.size(), static_cast<std::size_t>(result.attempts - 1));
  EXPECT_FALSE(result.deadline_exhausted);
  EXPECT_EQ(first.get().status, RequestStatus::kOk);
  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.retries, result.attempts - 1);
  EXPECT_EQ(s.shed, result.attempts - 1);
}

TEST(ServeRetryTest, RetriesNeverFirePastTheDeadline) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.start_paused = true;  // never started: every attempt sheds
  Server server(cfg, chaos_plan());
  Client client = server.client();
  (void)server.submit(FrameBatch::single("hold"));  // queue full from here on

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_seconds = 10.0;  // any backoff crosses the deadline
  policy.max_backoff_seconds = 10.0;
  SubmitOptions options;
  options.timeout_seconds = 0.050;  // total budget across all attempts
  const auto t0 = std::chrono::steady_clock::now();
  const RetryResult result = client.submit_with_retry(FrameBatch::single("r"), options, policy);
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // The first retry's backoff alone would cross the deadline, so the loop
  // stops after one attempt instead of sleeping past it.
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(result.deadline_exhausted);
  EXPECT_TRUE(result.backoffs.empty());
  EXPECT_EQ(result.response.status, RequestStatus::kShed);
  EXPECT_LT(elapsed, 5.0);  // nowhere near the 10 s backoff
  EXPECT_EQ(server.telemetry_snapshot().retries, 0);
}

TEST(ServeRetryTest, SameSeedAndScheduleReplayIdenticalBackoffTimelines) {
  // Drive two identical retry loops against deterministic shedding (paused
  // full server => every attempt sheds). The slept timelines must match
  // exactly — the property chaos debugging relies on.
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.004;
  policy.jitter = 0.5;
  policy.seed = 7;

  auto run_once = [&policy] {
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.start_paused = true;
    Server server(cfg, chaos_plan());
    Client client = server.client();
    (void)server.submit(FrameBatch::single("hold"));
    return client.submit_with_retry(FrameBatch::single("r"), {}, policy);
  };
  const RetryResult a = run_once();
  const RetryResult b = run_once();
  ASSERT_EQ(a.attempts, policy.max_attempts);
  ASSERT_EQ(b.attempts, policy.max_attempts);
  ASSERT_EQ(a.backoffs.size(), b.backoffs.size());
  for (std::size_t i = 0; i < a.backoffs.size(); ++i) {
    EXPECT_EQ(a.backoffs[i], b.backoffs[i]) << "backoff " << i;
  }
}

TEST(ServeBrownoutTest, EntersShedsLowPriorityDegradesStreamsAndRecovers) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.sequence.rebuild_fraction = 2.0;  // patch at any churn when healthy
  cfg.brownout.enabled = true;
  cfg.brownout.ewma_alpha = 0.5;
  cfg.brownout.enter_queue_wait_seconds = 0.020;
  cfg.brownout.exit_queue_wait_seconds = 0.002;
  cfg.brownout.shed_below_priority = 1;
  cfg.start_paused = true;  // build a backlog with a known queue wait
  Server server(cfg, chaos_plan());
  const auto frames = drifting_frames(3, 55);

  // Overload: two requests wait ~60 ms before the worker starts, so the
  // first pickups push the EWMA far above the enter threshold.
  auto backlog0 = server.submit(FrameBatch::single("b0"), {.priority = 2});
  auto backlog1 = server.submit(FrameBatch::single("b1"), {.priority = 2});
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.start();
  ASSERT_EQ(backlog0.get().status, RequestStatus::kOk);
  ASSERT_EQ(backlog1.get().status, RequestStatus::kOk);
  TelemetrySnapshot s = server.telemetry_snapshot();
  ASSERT_TRUE(s.brownout_active);
  EXPECT_EQ(s.brownout_entries, 1);

  // Brown-out: low-priority work sheds at admission, high priority passes.
  const Response low = server.submit(FrameBatch::single("low"), {.priority = 0}).get();
  EXPECT_EQ(low.status, RequestStatus::kShed);
  EXPECT_GE(server.telemetry_snapshot().brownout_sheds, 1);

  // Sticky streams degrade to cold builds while browned out: the EWMA
  // needs several fast pickups to decay 60 ms -> 2 ms (alpha 0.5), so the
  // stream's SECOND request still cold-builds — state that would normally
  // patch is deliberately not carried under overload.
  const Response first = server.submit_sequence(7, {frames[0]}, {.priority = 2}).get();
  ASSERT_EQ(first.status, RequestStatus::kOk) << first.error;
  const Response degraded = server.submit_sequence(7, {frames[1]}, {.priority = 2}).get();
  ASSERT_EQ(degraded.status, RequestStatus::kOk) << degraded.error;
  EXPECT_EQ(degraded.sequence.front().patched_scales(), 0U);

  // Recovery: idle-worker pickups wait ~nothing, so the EWMA decays below
  // the exit threshold and the hysteresis band is crossed downward.
  for (int i = 0; i < 50 && server.telemetry_snapshot().brownout_active; ++i) {
    ASSERT_EQ(server.submit(FrameBatch::single("drain"), {.priority = 2}).get().status,
              RequestStatus::kOk);
  }
  s = server.telemetry_snapshot();
  ASSERT_FALSE(s.brownout_active);
  EXPECT_EQ(s.brownout_entries, 1);  // hysteresis: no flapping on the way down

  // Low-priority work is admitted again and the degraded stream resumes
  // patching from its last cold-built state.
  const Response after = server.submit(FrameBatch::single("after"), {.priority = 0}).get();
  EXPECT_EQ(after.status, RequestStatus::kOk) << after.error;
  const Response resumed = server.submit_sequence(7, {frames[2]}, {.priority = 2}).get();
  ASSERT_EQ(resumed.status, RequestStatus::kOk) << resumed.error;
  EXPECT_GT(resumed.sequence.front().patched_scales(), 0U);
}

#if ESCA_FAULT

/// Every test leaves the process-wide injector disarmed, whether it passes
/// or throws.
struct InjectorGuard {
  InjectorGuard() { fault::Injector::global().reset(); }
  explicit InjectorGuard(const std::string& spec) {
    fault::Injector::global().configure(spec);
  }
  ~InjectorGuard() { fault::Injector::global().reset(); }
};

TEST(FaultInjectorTest, SameSeedAndScheduleFireIdentically) {
  fault::Injector& injector = fault::Injector::global();
  auto run = [&injector] {
    InjectorGuard guard("seed=7;alpha:p=0.25");
    std::vector<bool> fires;
    for (int i = 0; i < 400; ++i) fires.push_back(injector.fire("alpha"));
    return fires;
  };
  const std::vector<bool> a = run();
  const std::vector<bool> b = run();
  EXPECT_EQ(a, b);  // pure function of (seed, site, call index)
  const std::size_t fired = static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 40U);  // ~100 expected; generous bounds
  EXPECT_LT(fired, 200U);
  // A different seed produces a different sequence.
  InjectorGuard guard("seed=8;alpha:p=0.25");
  std::vector<bool> c;
  for (int i = 0; i < 400; ++i) c.push_back(injector.fire("alpha"));
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, NthOnceAndMaxSchedules) {
  fault::Injector& injector = fault::Injector::global();
  InjectorGuard guard("a:nth=3;b:once;c:max=2");
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(injector.fire("a"), i == 3) << "call " << i;  // exactly the 3rd
    EXPECT_EQ(injector.fire("b"), i == 1) << "call " << i;  // first only
    EXPECT_EQ(injector.fire("c"), i <= 2) << "call " << i;  // first two
  }
  EXPECT_EQ(injector.calls("a"), 5U);
  EXPECT_EQ(injector.fired("a"), 1U);
  EXPECT_EQ(injector.fired("c"), 2U);
  EXPECT_EQ(injector.total_fired(), 4U);
}

TEST(FaultInjectorTest, MostSpecificPatternWins) {
  fault::Injector& injector = fault::Injector::global();
  InjectorGuard guard("*:nth=3;x.*:nth=2;x.y:nth=1");
  EXPECT_TRUE(injector.fire("x.y"));   // exact match: fires on call 1
  EXPECT_FALSE(injector.fire("x.z"));  // prefix match: waits for call 2
  EXPECT_TRUE(injector.fire("x.z"));
  EXPECT_FALSE(injector.fire("q"));  // wildcard: waits for call 3
  EXPECT_FALSE(injector.fire("q"));
  EXPECT_TRUE(injector.fire("q"));
}

TEST(FaultInjectorTest, MalformedSpecsThrowAndUnarmedSitesNeverFire) {
  fault::Injector& injector = fault::Injector::global();
  InjectorGuard guard;
  EXPECT_THROW(injector.configure("no-colon-entry"), InvalidArgument);
  EXPECT_THROW(injector.configure("a:p=1.5"), InvalidArgument);
  EXPECT_THROW(injector.configure("a:p=abc"), InvalidArgument);
  EXPECT_THROW(injector.configure("a:nth=0"), InvalidArgument);
  EXPECT_THROW(injector.configure("a:bogus=1"), InvalidArgument);
  EXPECT_THROW(injector.configure("seed=xyz;a:once"), InvalidArgument);
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(fault::maybe_fire("anything"));
  fault::maybe_throw("anything");  // unarmed: no-op
}

TEST(FaultInjectorTest, MaybeThrowThrowsStdAndNonStdTypes) {
  InjectorGuard guard("std.site:once;ns.site:once,nonstd");
  EXPECT_THROW(fault::maybe_throw("std.site"), fault::InjectedFault);
  fault::maybe_throw("std.site");  // one-shot: disarmed now

  bool caught_nonstd = false;
  try {
    fault::maybe_throw("ns.site");
    FAIL() << "nonstd site did not throw";
  } catch (const std::exception&) {
    FAIL() << "InjectedFaultNonStd must not derive from std::exception";
  } catch (const fault::InjectedFaultNonStd& f) {
    caught_nonstd = true;
    EXPECT_STREQ(f.site, "ns.site");
  }
  EXPECT_TRUE(caught_nonstd);
}

TEST(FaultInjectorTest, FiredFaultsFeedTheGlobalRegistryCounter) {
  const obs::Counter* counter =
      obs::Registry::global().find_counter("esca_fault_injected_total");
  InjectorGuard guard("count.me:max=3");
  for (int i = 0; i < 10; ++i) (void)fault::maybe_fire("count.me");
  counter = obs::Registry::global().find_counter("esca_fault_injected_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->value(), 3);
  EXPECT_EQ(fault::Injector::global().total_fired(), 3U);
}

TEST(ServeFaultTest, FailedSequenceQuarantinesStreamStateAndColdRebuilds) {
  InjectorGuard guard;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.sequence.rebuild_fraction = 2.0;
  Server server(cfg, chaos_plan());
  Client client = server.client();
  const auto frames = drifting_frames(4, 77);

  // Healthy warm-up: cold build, then a patch.
  ASSERT_EQ(client.submit_sequence(3, {frames[0]}).get().status, RequestStatus::kOk);
  const Response warm = client.submit_sequence(3, {frames[1]}).get();
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_GT(warm.sequence.front().patched_scales(), 0U);

  // Fault the next patch mid-advance: the request fails and the stream's
  // (possibly inconsistent) state is quarantined.
  fault::Injector::global().configure("stream.patch:once");
  const Response failed = client.submit_sequence(3, {frames[2]}).get();
  EXPECT_EQ(failed.status, RequestStatus::kFailed);
  EXPECT_NE(failed.error.find("injected fault"), std::string::npos) << failed.error;
  fault::Injector::global().reset();

  TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.stream_quarantines, 1);
  EXPECT_EQ(s.failed, 1);

  // The stream recovers on the same worker: next request cold-builds
  // (fresh SequenceSession), the one after patches again.
  const Response rebuilt = client.submit_sequence(3, {frames[2]}).get();
  ASSERT_EQ(rebuilt.status, RequestStatus::kOk) << rebuilt.error;
  EXPECT_EQ(rebuilt.sequence.front().patched_scales(), 0U);
  const Response patched = client.submit_sequence(3, {frames[3]}).get();
  ASSERT_EQ(patched.status, RequestStatus::kOk) << patched.error;
  EXPECT_GT(patched.sequence.front().patched_scales(), 0U);
}

TEST(ServeFaultTest, DeadWorkerIsRespawnedAndStickyStreamsContinue) {
  InjectorGuard guard("serve.worker.die:nth=1");  // first pickup dies
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(cfg, chaos_plan());
  Client client = server.client();

  // The doomed pickup still resolves its request — dying never drops one.
  const Response died = client.submit_sync(FrameBatch::single("victim"));
  EXPECT_EQ(died.status, RequestStatus::kFailed);
  EXPECT_NE(died.error.find("worker death"), std::string::npos) << died.error;

  // Both worker slots must serve afterwards — including the respawned one.
  // Sticky streams cover both owners (0 and 1), so a dead, unrespawned
  // slot would hang its stream's future (the wait_for guards against it).
  for (std::uint64_t stream_id = 0; stream_id < 4; ++stream_id) {
    auto future = client.submit_sequence(stream_id, drifting_frames(1, stream_id));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "stream " << stream_id << " hung — worker slot "
        << server.stream_owner(stream_id) << " never came back";
    const Response response = future.get();
    EXPECT_EQ(response.status, RequestStatus::kOk) << response.error;
    EXPECT_EQ(response.worker_id, server.stream_owner(stream_id));
  }
  const TelemetrySnapshot s = server.telemetry_snapshot();
  EXPECT_EQ(s.worker_respawns, 1);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.completed, 4);
}

TEST(ServeFaultTest, NonStdThrowIsContainedAsFailed) {
  InjectorGuard guard("runtime.run:once,nonstd");
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg, chaos_plan());
  Client client = server.client();
  const Response failed = client.submit_sync(FrameBatch::single("ns"));
  EXPECT_EQ(failed.status, RequestStatus::kFailed);
  EXPECT_EQ(failed.error, "non-standard exception");
  // A batch that throws on its second frame fails with its first frame kept.
  fault::Injector::global().configure("runtime.run:nth=2,nonstd");
  const Response partial = client.submit_sync(FrameBatch::replay(3));
  EXPECT_EQ(partial.status, RequestStatus::kFailed);
  EXPECT_EQ(partial.error, "non-standard exception");
  ASSERT_EQ(partial.report.frames.size(), 1U);
  EXPECT_EQ(partial.report.frames.front().frame_id, "frame0");
  // The worker survived (no respawn) and keeps serving.
  EXPECT_EQ(client.submit_sync(FrameBatch::single("ok")).status, RequestStatus::kOk);
  EXPECT_EQ(server.telemetry_snapshot().worker_respawns, 0);
}

// The chaos invariant. Every injection site in the codebase armed at
// p=0.05, three seeds, 4 client threads mixing batch, sequence and
// retried traffic. Afterwards: every future resolved with exactly one
// terminal status (telemetry outcome counts partition submissions), every
// kOk response is bit-identical to the fault-free reference, and the
// server still serves once the faults stop.
TEST(FaultChaosTest, EverySiteArmedEveryRequestTerminalOkBitExact) {
  const runtime::PlanPtr plan = chaos_plan();
  const RunOptions keep{.verify = true, .keep_outputs = true};

  // Fault-free reference outputs. Frames replay the Plan's calibration
  // inputs, so every executed frame — batch or sequence, cold or patched,
  // before or after a respawn — must reproduce these outputs exactly.
  runtime::Engine engine;
  runtime::Session reference_session = engine.open_session(plan);
  const runtime::RunReport reference =
      reference_session.submit(FrameBatch::single("reference"), keep);
  ASSERT_EQ(reference.frames.size(), 1U);

  std::int64_t total_failed = 0;
  std::uint64_t executor_faults = 0;
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    InjectorGuard guard(str::format(
        "seed=%llu;"
        "runtime.run:p=0.05;runtime.run.delay:p=0.05,delay_ms=1;"
        "stream.diff:p=0.05;stream.patch:p=0.05;stream.force_rebuild:p=0.05;"
        "sparse.arena.grow:p=0.05;executor.task:p=0.05;"
        "serve.admit.delay:p=0.05,delay_ms=1;serve.pickup.delay:p=0.05,delay_ms=1;"
        "serve.worker.die:p=0.05",
        static_cast<unsigned long long>(seed)));

    ServerConfig cfg;
    cfg.workers = 4;
    cfg.queue_capacity = 32;
    cfg.sequence.rebuild_fraction = 2.0;
    // Sharded stream geometry: executor.task then fires mid-diff, inside a
    // patch phase and mid-build, not only on single-partition fan-outs.
    cfg.sequence.geometry.shards = 2;
    Server server(cfg, plan);

    constexpr int kClientThreads = 4;
    constexpr int kRequestsPerClient = 12;
    std::vector<std::future<Response>> futures(
        static_cast<std::size_t>(kClientThreads * kRequestsPerClient));
    std::vector<RetryResult> retried(kClientThreads);
    std::vector<std::thread> clients;
    clients.reserve(kClientThreads);
    for (int c = 0; c < kClientThreads; ++c) {
      clients.emplace_back([&, c] {
        Client client = server.client();
        const auto frames =
            drifting_frames(kRequestsPerClient, seed * 100 + static_cast<std::uint64_t>(c));
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::size_t slot = static_cast<std::size_t>(c * kRequestsPerClient + r);
          if (r % 3 == 2) {
            // Sticky sequence traffic: stream ids span all four workers.
            futures[slot] = client.submit_sequence(
                static_cast<std::uint64_t>(c), {frames[static_cast<std::size_t>(r)]},
                {.run = keep});
          } else {
            futures[slot] = client.submit(FrameBatch::single(str::format("c%dr%d", c, r)),
                                          {.run = keep});
          }
        }
        // One deadline-budgeted retried submission per client.
        RetryPolicy policy;
        policy.max_attempts = 4;
        policy.initial_backoff_seconds = 0.002;
        policy.max_backoff_seconds = 0.010;
        policy.seed = seed + static_cast<std::uint64_t>(c);
        retried[static_cast<std::size_t>(c)] = client.submit_with_retry(
            FrameBatch::single(str::format("retry%d", c)), {.run = keep}, policy);
      });
    }
    for (std::thread& t : clients) t.join();

    // Exactly one terminal status per request, no hangs: every future must
    // already resolve within the generous bound (a dropped promise throws,
    // a hang trips the wait_for).
    std::int64_t ok = 0;
    std::int64_t not_ok = 0;
    auto check = [&](const Response& response) {
      if (response.status == RequestStatus::kOk) {
        ++ok;
        ASSERT_EQ(response.report.frames.size(), 1U);
        const auto& got = response.report.frames.front().outputs;
        const auto& want = reference.frames.front().outputs;
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t l = 0; l < want.size(); ++l) {
          ASSERT_TRUE(got[l] == want[l])
              << "seed " << seed << ": kOk response diverged in layer " << l;
        }
      } else {
        ++not_ok;
      }
    };
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(60)), std::future_status::ready)
          << "seed " << seed << ": a request hung";
      check(future.get());
    }
    for (const RetryResult& result : retried) check(result.response);

    // The server must still function once the chaos stops: quarantined
    // streams cold-rebuild, respawned workers serve.
    executor_faults += fault::Injector::global().fired("executor.task");
    fault::Injector::global().reset();
    Client survivor = server.client();
    for (std::uint64_t stream_id = 0; stream_id < 4; ++stream_id) {
      auto future = survivor.submit_sequence(stream_id, drifting_frames(1, 900 + stream_id));
      ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
      EXPECT_EQ(future.get().status, RequestStatus::kOk) << "seed " << seed;
    }
    server.shutdown();

    // Telemetry partitions every submission into exactly one outcome.
    const TelemetrySnapshot s = server.telemetry_snapshot();
    EXPECT_EQ(s.submitted, s.completed + s.shed + s.expired + s.failed)
        << "seed " << seed << ": an outcome was double- or un-counted";
    EXPECT_EQ(s.completed, ok + 4) << "seed " << seed;  // + the 4 post-chaos checks
    total_failed += s.failed;
  }
  // At p=0.05 per site across three seeds, the chaos must actually bite,
  // including inside executor fan-outs.
  EXPECT_GT(total_failed, 0) << "chaos injected nothing across every seed";
  EXPECT_GT(executor_faults, 0U) << "no executor partition was ever failed";
}

#else  // ESCA_FAULT == 0

TEST(FaultDisabledTest, SitesCompileToNoOps) {
  EXPECT_FALSE(fault::injection_compiled());
  EXPECT_FALSE(fault::maybe_fire("anything"));
  fault::maybe_throw("anything");  // both must be callable no-ops
  fault::maybe_delay("anything");
}

#endif  // ESCA_FAULT

}  // namespace
}  // namespace esca::serve
