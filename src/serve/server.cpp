#include "serve/server.hpp"

#include <exception>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "serve/retry.hpp"

namespace esca::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Thrown by the "serve.worker.die" chaos site to kill a worker thread on
/// purpose. Deliberately NOT a std::exception: it must sail past the
/// per-request handlers and reach worker_entry, proving the supervisor
/// path works for the worst throw type.
struct WorkerDeath {};

}  // namespace

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kShed: return "shed";
    case RequestStatus::kExpired: return "expired";
    case RequestStatus::kFailed: return "failed";
  }
  return "?";
}

std::future<Response> Client::submit(const runtime::FrameBatch& batch,
                                     const SubmitOptions& options) {
  return server_->submit(batch, options);
}

Response Client::submit_sync(const runtime::FrameBatch& batch, const SubmitOptions& options) {
  return server_->submit(batch, options).get();
}

std::future<Response> Client::submit_sequence(std::uint64_t stream_id,
                                              std::vector<sparse::SparseTensor> frames,
                                              const SubmitOptions& options) {
  return server_->submit_sequence(stream_id, std::move(frames), options);
}

RetryResult Client::submit_with_retry(const runtime::FrameBatch& batch,
                                      const SubmitOptions& options,
                                      const RetryPolicy& policy) {
  return server_->retry_loop(options, policy, [&](const SubmitOptions& attempt) {
    return server_->submit(batch, attempt).get();
  });
}

Server::Server(ServerConfig config, runtime::PlanPtr plan)
    : config_(std::move(config)),
      plan_(std::move(plan)),
      queue_(config_.queue_capacity) {
  ESCA_REQUIRE(config_.workers >= 1, "server needs at least one worker, got "
                                         << config_.workers);
  ESCA_REQUIRE(config_.max_streams_per_worker >= 1,
               "max_streams_per_worker must be >= 1, got "
                   << config_.max_streams_per_worker);
  ESCA_REQUIRE(plan_ != nullptr, "server plan is null");
  ESCA_REQUIRE(!plan_->network.layers.empty(), "server plan has no layers");
  if (config_.brownout.enabled) {
    ESCA_REQUIRE(config_.brownout.ewma_alpha > 0.0 && config_.brownout.ewma_alpha <= 1.0,
                 "brownout ewma_alpha must be in (0, 1], got " << config_.brownout.ewma_alpha);
    ESCA_REQUIRE(config_.brownout.exit_queue_wait_seconds <=
                     config_.brownout.enter_queue_wait_seconds,
                 "brownout exit threshold " << config_.brownout.exit_queue_wait_seconds
                                            << " must not exceed the enter threshold "
                                            << config_.brownout.enter_queue_wait_seconds);
  }
  if (!config_.start_paused) start();
}

Server::Server(ServerConfig config, runtime::Plan plan)
    : Server(std::move(config), runtime::share_plan(std::move(plan))) {}

Server::~Server() { shutdown(); }

void Server::start() {
  ESCA_REQUIRE(!stopped_.load(), "server is shut down; it cannot be restarted");
  if (started_.exchange(true)) return;
  workers_.resize(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_[static_cast<std::size_t>(w)] = std::thread([this, w] { worker_entry(w); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

void Server::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  // The supervisor is stopped (and joined) before the workers: it joins and
  // reassigns workers_ slots, so the two must never race on them. Any
  // worker that dies after this point is simply joined below — the queue is
  // closed, nothing needs respawning.
  {
    std::lock_guard<std::mutex> lock(supervisor_mutex_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // A never-started server may still hold queued requests; shed them so
  // every promise resolves.
  while (auto request = queue_.pop()) {
    telemetry_.on_shed();
    Response response;
    response.status = RequestStatus::kShed;
    fulfill(*request, std::move(response));
  }
}

std::future<Response> Server::submit(const runtime::FrameBatch& batch,
                                     const SubmitOptions& options) {
  ESCA_REQUIRE(batch.size() >= 1, "batch must contain at least one frame");
  PendingRequest request;
  request.kind = RequestKind::kBatch;
  request.batch = batch;
  request.options = options;
  return enqueue(std::move(request), /*affinity=*/-1);
}

std::future<Response> Server::submit_sequence(std::uint64_t stream_id,
                                              std::vector<sparse::SparseTensor> frames,
                                              const SubmitOptions& options) {
  ESCA_REQUIRE(!frames.empty(), "sequence request must carry at least one frame");
  ESCA_REQUIRE(stream_id != std::numeric_limits<std::uint64_t>::max(),
               "stream id " << stream_id << " is reserved");
  PendingRequest request;
  request.kind = RequestKind::kSequence;
  request.stream_id = stream_id;
  request.frames = std::move(frames);
  request.options = options;
  return enqueue(std::move(request), stream_owner(stream_id));
}

int Server::stream_owner(std::uint64_t stream_id) const {
  // Stateless sticky routing: a stream id always maps to the same worker,
  // so ownership can never migrate — there is no table to fill up or evict,
  // and a stream whose worker-side state was evicted (max_streams_per_worker)
  // cold-builds on the SAME worker, preserving the submission-order and
  // single-owner guarantees unconditionally.
  return static_cast<int>(stream_id % static_cast<std::uint64_t>(config_.workers));
}

std::future<Response> Server::enqueue(PendingRequest request, int affinity) {
  obs::Span span("serve.enqueue");
  span.arg("kind", request.kind == RequestKind::kSequence ? "sequence" : "batch");
  // Chaos site: admission delay. Placed before the enqueue timestamp so an
  // injected stall looks like a slow client, not queue wait.
  fault::maybe_delay("serve.admit.delay");
  telemetry_.on_submitted();
  request.id = ++next_request_id_;
  span.arg("id", static_cast<std::int64_t>(request.id));

  // Brown-out: while the queue-wait EWMA says overloaded, low-priority work
  // is refused at the door — cheaper for everyone than queueing requests
  // that would mostly expire, and it sheds load where the policy says it
  // hurts least.
  if (brownout_active_.load(std::memory_order_relaxed) &&
      request.options.priority < config_.brownout.shed_below_priority) {
    span.arg("outcome", "brownout-shed");
    telemetry_.on_brownout_shed();
    std::promise<Response> shed_promise;
    std::future<Response> future = shed_promise.get_future();
    Response response;
    response.status = RequestStatus::kShed;
    response.request_id = request.id;
    shed_promise.set_value(std::move(response));
    return future;
  }

  request.enqueued = std::chrono::steady_clock::now();
  if (request.options.timeout_seconds > 0.0) {
    request.deadline = request.enqueued +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(request.options.timeout_seconds));
  }
  std::future<Response> future = request.promise.get_future();
  const std::uint64_t id = request.id;

  // Requests of one stream must pop in submission order regardless of
  // priority — the order key enforces it (0 for unordered batch work).
  const PushInfo info{.priority = request.options.priority,
                      .affinity = affinity,
                      .order_key = request.kind == RequestKind::kSequence
                                       ? request.stream_id + 1
                                       : 0};
  if (!queue_.try_push(std::move(request), info)) {
    // Admission control: full (or stopped) queue sheds synchronously — the
    // client learns about overload now, not after a timeout.
    span.arg("outcome", "shed");
    telemetry_.on_shed();
    std::promise<Response> shed_promise;
    future = shed_promise.get_future();
    Response response;
    response.status = RequestStatus::kShed;
    response.request_id = id;
    shed_promise.set_value(std::move(response));
    return future;
  }
  telemetry_.sample_queue_depth(queue_.depth());
  return future;
}

Client Server::client() { return Client(this, ++next_client_id_); }

void Server::worker_entry(int worker_id) {
  try {
    worker_loop(worker_id);
  } catch (...) {
    // Anything escaping the loop is a dying worker (the "serve.worker.die"
    // chaos site, or a defect). Report it so the supervisor can join this
    // thread and respawn the slot — sticky-stream routing (id mod workers)
    // depends on every slot staying alive.
    std::lock_guard<std::mutex> lock(supervisor_mutex_);
    dead_workers_.push_back(worker_id);
    supervisor_cv_.notify_all();
  }
}

void Server::supervisor_loop() {
  std::unique_lock<std::mutex> lock(supervisor_mutex_);
  for (;;) {
    supervisor_cv_.wait(lock, [&] { return supervisor_stop_ || !dead_workers_.empty(); });
    while (!dead_workers_.empty()) {
      const int w = dead_workers_.back();
      dead_workers_.pop_back();
      // The dead thread already left worker_loop; join completes as soon
      // as it finishes unwinding. Unlocked so a concurrently dying worker
      // can report itself meanwhile.
      lock.unlock();
      workers_[static_cast<std::size_t>(w)].join();
      if (!queue_.closed()) {
        workers_[static_cast<std::size_t>(w)] =
            std::thread([this, w] { worker_entry(w); });
        telemetry_.on_worker_respawn();
      }
      lock.lock();
    }
    if (supervisor_stop_) return;
  }
}

void Server::worker_loop(int worker_id) {
  // Worker-private execution state: its own Backend (simulator + weight
  // residency), a Session replica over the shared immutable Plan, and the
  // SequenceSessions of the streams pinned to this worker. Stream state is
  // worker-local by construction (sticky routing), so none of it is locked.
  // The stream map is bounded (max_streams_per_worker): past the cap the
  // least-recently-served stream's geometry state is evicted — a later
  // request of that stream just cold-builds again. A respawned worker
  // starts with an empty map: the faults that kill workers are the same
  // ones that make carried state suspect.
  const std::unique_ptr<runtime::Backend> backend = runtime::make_backend(config_.runtime);
  runtime::Session session(*backend, plan_);
  struct StreamState {
    stream::SequenceSession session;
    std::uint64_t last_use{0};
  };
  std::unordered_map<std::uint64_t, StreamState> streams;
  std::uint64_t stream_use = 0;

  while (auto request = queue_.pop(worker_id)) {
    try {
      telemetry_.sample_queue_depth(queue_.depth());
      const auto picked_up = std::chrono::steady_clock::now();
      const double queue_seconds = seconds_between(request->enqueued, picked_up);
      // The wait interval ended the instant this worker popped the request;
      // only now are both endpoints known, so it is recorded retroactively
      // (on this worker's trace track, preceding the request span).
      obs::emit_span("serve.queue_wait", request->enqueued, picked_up);
      update_brownout(queue_seconds);
      // Chaos site: stall between pop and processing — queue wait is
      // already banked, so this stretches execute/total time only.
      fault::maybe_delay("serve.pickup.delay");

      Response response;
      response.request_id = request->id;
      response.queue_seconds = queue_seconds;

      if (request->deadline && picked_up > *request->deadline) {
        response.status = RequestStatus::kExpired;
        response.total_seconds = queue_seconds;
        telemetry_.on_expired(queue_seconds, queue_seconds);
        fulfill(*request, std::move(response));
        continue;
      }

      // Chaos site: kill this worker thread. The popped request is resolved
      // kFailed FIRST — dying can never drop a request — then the throw
      // unwinds to worker_entry and the supervisor respawns the slot.
      if (fault::maybe_fire("serve.worker.die")) {
        response.status = RequestStatus::kFailed;
        response.worker_id = worker_id;
        response.error = "injected worker death";
        response.total_seconds = queue_seconds;
        telemetry_.on_failed(queue_seconds, queue_seconds);
        fulfill(*request, std::move(response));
        throw WorkerDeath{};
      }

      response.worker_id = worker_id;
      obs::Span span("serve.request");
      span.arg("worker", worker_id);
      span.arg("id", static_cast<std::int64_t>(request->id));
      span.arg("kind", request->kind == RequestKind::kSequence ? "sequence" : "batch");
      try {
        if (request->kind == RequestKind::kSequence) {
          auto it = streams.find(request->stream_id);
          if (it == streams.end()) {
            it = streams
                     .emplace(request->stream_id,
                              StreamState{stream::SequenceSession(session, config_.sequence), 0})
                     .first;
            if (streams.size() > static_cast<std::size_t>(config_.max_streams_per_worker)) {
              auto stalest = streams.end();
              for (auto s = streams.begin(); s != streams.end(); ++s) {
                if (s->first == request->stream_id) continue;
                if (stalest == streams.end() || s->second.last_use < stalest->second.last_use) {
                  stalest = s;
                }
              }
              if (stalest != streams.end()) streams.erase(stalest);
            }
          }
          it->second.last_use = ++stream_use;
          // Brown-out degradation: while overloaded the stream cold-builds
          // every frame (bit-identical outputs) instead of growing
          // incremental state; the flag is cleared again once the EWMA
          // recovers.
          it->second.session.set_forced_rebuild(
              brownout_active_.load(std::memory_order_relaxed));
          run_sequence(it->second.session, *request, response);
        } else {
          run_batch(session, *request, response);
        }
      } catch (const std::exception& e) {
        response.status = RequestStatus::kFailed;
        response.error = e.what();
      } catch (...) {
        // Non-std throw types must not kill the worker either — the
        // injector's `nonstd` spec flag exists to pin this path.
        response.status = RequestStatus::kFailed;
        response.error = "non-standard exception";
      }
      if (response.status == RequestStatus::kFailed &&
          request->kind == RequestKind::kSequence) {
        // Quarantine: an exception mid-advance can leave the stream's
        // per-scale incremental geometry halfway between two frames.
        // Dropping the SequenceSession makes the stream's next request
        // cold-rebuild from the frame it carries — correct by construction.
        if (streams.erase(request->stream_id) > 0) telemetry_.on_stream_quarantined();
      }
      const auto finished = std::chrono::steady_clock::now();
      response.execute_seconds = seconds_between(picked_up, finished);
      response.total_seconds = seconds_between(request->enqueued, finished);
      if (response.status == RequestStatus::kOk) {
        const core::MemorySummary mem = response.report.memory_summary();
        telemetry_.on_completed(queue_seconds, response.total_seconds,
                                response.report.frames.size(),
                                MemoryCounters{mem.dram_bytes_in + mem.dram_bytes_out,
                                               mem.bank_conflict_stalls,
                                               mem.memory_bound_layers});
      } else if (response.status == RequestStatus::kExpired) {
        telemetry_.on_expired(queue_seconds, response.total_seconds);
      } else {
        telemetry_.on_failed(queue_seconds, response.total_seconds);
      }
      span.arg("status", to_string(response.status));
      fulfill(*request, std::move(response));
    } catch (...) {
      // A worker-killing throw. The popped request must still reach a
      // terminal status before this thread unwinds — drop-before-fulfill
      // is impossible by construction.
      if (!request->fulfilled) {
        Response response;
        response.status = RequestStatus::kFailed;
        response.request_id = request->id;
        response.worker_id = worker_id;
        response.error = "worker died while handling this request";
        telemetry_.on_failed(0.0, 0.0);
        fulfill(*request, std::move(response));
      }
      throw;
    }
  }
}

void Server::update_brownout(double queue_seconds) {
  if (!config_.brownout.enabled) return;
  bool entered = false;
  bool exited = false;
  {
    std::lock_guard<std::mutex> lock(brownout_mutex_);
    const double alpha = config_.brownout.ewma_alpha;
    brownout_ewma_ = brownout_seeded_
                         ? alpha * queue_seconds + (1.0 - alpha) * brownout_ewma_
                         : queue_seconds;
    brownout_seeded_ = true;
    const bool active = brownout_active_.load(std::memory_order_relaxed);
    if (!active && brownout_ewma_ > config_.brownout.enter_queue_wait_seconds) {
      brownout_active_.store(true, std::memory_order_relaxed);
      entered = true;
    } else if (active && brownout_ewma_ < config_.brownout.exit_queue_wait_seconds) {
      brownout_active_.store(false, std::memory_order_relaxed);
      exited = true;
    }
  }
  if (entered) telemetry_.on_brownout(true);
  if (exited) telemetry_.on_brownout(false);
}

RetryResult Server::retry_loop(const SubmitOptions& options, const RetryPolicy& policy,
                               const std::function<Response(const SubmitOptions&)>& attempt) {
  policy.validate();
  const auto start = std::chrono::steady_clock::now();
  const bool budgeted = options.timeout_seconds > 0.0;
  const auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(options.timeout_seconds));
  RetryResult result;
  for (int k = 1;; ++k) {
    SubmitOptions per_attempt = options;
    if (budgeted) {
      // Each attempt gets the budget REMAINING now, so the server-side
      // deadline always agrees with the client's overall one.
      per_attempt.timeout_seconds = std::max(
          seconds_between(std::chrono::steady_clock::now(), deadline), 1e-9);
    }
    result.response = attempt(per_attempt);
    result.attempts = k;
    if (!policy.retryable(result.response.status) || k >= policy.max_attempts) break;
    const double backoff = policy.backoff_seconds(k);
    if (budgeted &&
        backoff >= seconds_between(std::chrono::steady_clock::now(), deadline)) {
      // The wait alone would cross the deadline: a retry can never fire
      // after it, so stop with the last response instead.
      result.deadline_exhausted = true;
      break;
    }
    telemetry_.on_retry();
    result.backoffs.push_back(backoff);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
  return result;
}

void Server::run_batch(runtime::Session& session, PendingRequest& request,
                       Response& response) {
  response.report.backend_name = session.backend().name();
  for (std::size_t f = 0; f < request.batch.frame_ids.size(); ++f) {
    // Deadline re-check between frames: a long batch expires mid-way
    // instead of holding the worker to completion. Completed frames stay
    // in the report, also when a later frame throws.
    if (f > 0 && request.deadline &&
        std::chrono::steady_clock::now() > *request.deadline) {
      response.status = RequestStatus::kExpired;
      return;
    }
    runtime::RunReport frame = session.submit(
        runtime::FrameBatch::single(request.batch.frame_ids[f]), request.options.run);
    for (auto& report : frame.frames) response.report.frames.push_back(std::move(report));
  }
  response.status = RequestStatus::kOk;
}

void Server::run_sequence(stream::SequenceSession& stream, PendingRequest& request,
                          Response& response) {
  response.report.backend_name = stream.session().backend().name();
  for (std::size_t f = 0; f < request.frames.size(); ++f) {
    // Same mid-request expiry as run_batch; the stream keeps the state of
    // the frames that did execute, so a follow-up request resumes cleanly.
    if (f > 0 && request.deadline &&
        std::chrono::steady_clock::now() > *request.deadline) {
      response.status = RequestStatus::kExpired;
      return;
    }
    const std::string frame_id =
        str::format("s%llu-f%zu", static_cast<unsigned long long>(request.stream_id),
                    stream.frames_advanced());
    stream::SequenceFrameResult result =
        stream.advance(request.frames[f], frame_id, request.options.run);
    const std::size_t patched = result.stats.patched_scales();
    telemetry_.on_sequence_frame(patched, result.stats.scales.size() - patched,
                                 result.stats.patch_seconds());
    response.sequence.push_back(std::move(result.stats));
    for (auto& report : result.run.frames) {
      response.report.frames.push_back(std::move(report));
    }
  }
  response.status = RequestStatus::kOk;
}

void Server::fulfill(PendingRequest& request, Response response) {
  request.fulfilled = true;
  request.promise.set_value(std::move(response));
}

}  // namespace esca::serve
