// esca::serve — concurrent multi-session serving over one compiled Plan.
//
// The paper evaluates single-stream batch latency; a deployed accelerator
// is a shared resource fed by many concurrent streams (PointAcc frames the
// same scenario). The Server turns the runtime into that system:
//
//   clients ── submit(FrameBatch) ──► bounded priority queue ──► worker pool
//                  │ (full → shed)        (deadline checked        │
//                  ▼                       at pickup)              ▼
//            future<Response>                        one Backend + Session
//                                                    replica per worker over
//                                                    the SHARED PlanPtr
//
// Each worker owns a private Backend (its own simulator state and weight
// residency) and a runtime::Session over the shared immutable Plan, so
// execution needs no locking and results are bit-identical to a sequential
// Session::submit of the same batches. Admission control sheds requests
// when the queue is full; per-request deadlines expire in the queue without
// ever executing AND are re-checked between the frames of a multi-frame
// request, so long batches expire mid-way instead of running to
// completion; Telemetry aggregates latency percentiles, queue depth, shed
// counts and throughput. The queue serves the highest priority first, FIFO
// within a priority.
//
// Streaming sequences are a second, sticky request kind: submit_sequence()
// pins every request of one stream id to one worker, whose
// stream::SequenceSession carries the stream's per-scale incremental
// geometry across requests — stream state never migrates, so it needs no
// locking either.
//
// Robustness (exercised by the esca::fault chaos harness):
//   - every request reaches exactly one terminal status, even when a worker
//     thread dies mid-request — the death path resolves the popped request
//     kFailed before the thread unwinds;
//   - a supervisor thread respawns dead workers into the same slot, so the
//     sticky id-mod-workers routing keeps functioning;
//   - a request that throws inside a sequence quarantines that stream's
//     state (a mid-patch failure can leave incremental geometry
//     inconsistent) — the stream's next request cold-rebuilds;
//   - BrownoutConfig sheds low-priority work early and degrades sticky
//     streams to cold builds while the queue-wait EWMA says overloaded;
//   - serve/retry.hpp adds deadline-aware client retries on top.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "serve/request_queue.hpp"
#include "serve/telemetry.hpp"
#include "sparse/sparse_tensor.hpp"
#include "stream/sequence_session.hpp"

namespace esca::serve {

/// Terminal state of one request.
enum class RequestStatus : std::uint8_t {
  kOk,       ///< executed; `report` carries the per-frame results
  kShed,     ///< rejected at admission (queue full or server stopped)
  kExpired,  ///< deadline passed while queued or between frames; `report`
             ///< carries any frames that completed before expiry
  kFailed,   ///< execution threw; `error` carries the message
};

const char* to_string(RequestStatus status);

/// Per-request submission knobs.
struct SubmitOptions {
  /// Higher-priority requests are picked up first (FIFO within a priority).
  int priority{0};
  /// Relative deadline in seconds; <= 0 means none. A request whose
  /// deadline passes before a worker picks it up is dropped unexecuted.
  double timeout_seconds{0.0};
  /// Execution options forwarded to runtime::Session::submit.
  runtime::RunOptions run{};
};

/// Everything a client gets back for one request.
struct Response {
  RequestStatus status{RequestStatus::kShed};
  std::uint64_t request_id{0};
  int worker_id{-1};            ///< -1 when the request never executed
  /// Executed frames (core/report-compatible). An expired or failed
  /// request keeps the frames that completed before it stopped.
  runtime::RunReport report;
  /// Per-frame geometry stats of a sequence request (empty otherwise);
  /// entry i matches report.frames[i].
  std::vector<stream::SequenceFrameStats> sequence;
  std::string error;            ///< filled for kFailed
  double queue_seconds{0.0};    ///< admission -> worker pickup
  double execute_seconds{0.0};  ///< wall clock inside Session::submit
  double total_seconds{0.0};    ///< admission -> completion

  bool ok() const { return status == RequestStatus::kOk; }
};

/// Overload brown-out. Workers fold every request's queue wait into an
/// EWMA; when it crosses `enter_queue_wait_seconds` the server enters
/// brown-out: admission sheds requests below `shed_below_priority`
/// immediately (cheaper than queueing work that would expire anyway) and
/// sticky streams degrade to cold geometry builds (bit-identical outputs,
/// no incremental state carried while overloaded). The mode exits only when
/// the EWMA falls below `exit_queue_wait_seconds` — the hysteresis band
/// keeps it from flapping at the threshold.
struct BrownoutConfig {
  bool enabled{false};
  /// EWMA smoothing factor in (0, 1]; higher = reacts faster.
  double ewma_alpha{0.2};
  double enter_queue_wait_seconds{0.050};
  double exit_queue_wait_seconds{0.010};
  /// While active, admission sheds requests with priority below this.
  int shed_below_priority{1};
};

struct ServerConfig {
  int workers{2};
  std::size_t queue_capacity{64};
  /// Backend every worker replicates (one Backend instance per worker).
  runtime::RuntimeConfig runtime{};
  /// Per-stream SequenceSession configuration (sequence requests).
  stream::SequenceSessionConfig sequence{};
  /// Bound on retained stream state: each worker keeps at most this many
  /// SequenceSessions (least-recently-served evicted; an evicted stream's
  /// next request re-pins and cold-builds). The Server's owner table is
  /// bounded at workers * this.
  int max_streams_per_worker{64};
  /// Overload brown-out (disabled by default; see BrownoutConfig).
  BrownoutConfig brownout{};
  /// When true the constructor does not launch the worker pool; call
  /// start(). Deterministic queue tests fill the queue before any worker
  /// can drain it.
  bool start_paused{false};
};

class Server;
struct RetryPolicy;  // serve/retry.hpp
struct RetryResult;

/// Lightweight submission handle — copyable, safe to use from any thread;
/// must not outlive the Server.
class Client {
 public:
  std::future<Response> submit(const runtime::FrameBatch& batch,
                               const SubmitOptions& options = {});
  /// Submit and block for the response.
  Response submit_sync(const runtime::FrameBatch& batch, const SubmitOptions& options = {});

  /// Submit the next frames of a stream (sticky: all requests of one
  /// stream id execute on the same worker, in submission order).
  std::future<Response> submit_sequence(std::uint64_t stream_id,
                                        std::vector<sparse::SparseTensor> frames,
                                        const SubmitOptions& options = {});

  /// Blocking submit with retries under `policy` (serve/retry.hpp). The
  /// options' timeout is the TOTAL deadline budget across every attempt;
  /// retries never fire past it.
  RetryResult submit_with_retry(const runtime::FrameBatch& batch,
                                const SubmitOptions& options, const RetryPolicy& policy);

  std::uint64_t id() const { return id_; }

 private:
  friend class Server;
  Client(Server* server, std::uint64_t id) : server_(server), id_(id) {}

  Server* server_;
  std::uint64_t id_;
};

class Server {
 public:
  /// Spawns `config.workers` worker threads (unless start_paused), each
  /// with a private Backend and a Session over the shared `plan`.
  Server(ServerConfig config, runtime::PlanPtr plan);

  /// Convenience: compile-once, serve-many (wraps the Plan for sharing).
  Server(ServerConfig config, runtime::Plan plan);

  /// Drains the queue and joins the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launch the worker pool (no-op when already running).
  void start();

  /// Stop admitting, let workers drain the backlog, join them. Requests
  /// still queued on a never-started server are shed. Idempotent.
  void shutdown();

  /// Submit a batch; the future resolves when a worker finishes it (or
  /// immediately with kShed when admission rejects it).
  std::future<Response> submit(const runtime::FrameBatch& batch,
                               const SubmitOptions& options = {});

  /// Submit the next frames of a stream. Every request of a stream id runs
  /// on the same worker (stateless assignment: id mod workers), continuing
  /// that worker's SequenceSession state, and requests of one stream
  /// execute in submission order regardless of their priorities. Stream id
  /// UINT64_MAX is reserved.
  std::future<Response> submit_sequence(std::uint64_t stream_id,
                                        std::vector<sparse::SparseTensor> frames,
                                        const SubmitOptions& options = {});

  /// The worker every request of this stream id executes on.
  int stream_owner(std::uint64_t stream_id) const;

  /// A new client handle (distinct id, shared queue).
  Client client();

  const ServerConfig& config() const { return config_; }
  const runtime::Plan& plan() const { return *plan_; }
  int workers() const { return config_.workers; }
  bool running() const { return started_ && !stopped_; }

  const Telemetry& telemetry() const { return telemetry_; }
  TelemetrySnapshot telemetry_snapshot() const { return telemetry_.snapshot(); }

 private:
  friend class Client;  // submit_with_retry drives retry_loop

  enum class RequestKind : std::uint8_t { kBatch, kSequence };

  struct PendingRequest {
    std::uint64_t id{0};
    RequestKind kind{RequestKind::kBatch};
    runtime::FrameBatch batch;
    /// Sequence payload (kind == kSequence).
    std::uint64_t stream_id{0};
    std::vector<sparse::SparseTensor> frames;
    SubmitOptions options;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Set by fulfill(): lets the worker-death path prove the popped
    /// request got its terminal status before the thread dies.
    bool fulfilled{false};
  };

  std::future<Response> enqueue(PendingRequest request, int affinity);
  /// Thread body: runs worker_loop and, if anything escapes it (a
  /// worker-killing fault), reports this worker dead to the supervisor.
  void worker_entry(int worker_id);
  void worker_loop(int worker_id);
  /// Joins dead workers and respawns their slot (same id, so sticky-stream
  /// ownership id mod workers keeps functioning) until shutdown.
  void supervisor_loop();
  /// Folds one queue-wait sample into the brown-out EWMA and flips the
  /// mode across the hysteresis band.
  void update_brownout(double queue_seconds);
  RetryResult retry_loop(const SubmitOptions& options, const RetryPolicy& policy,
                         const std::function<Response(const SubmitOptions&)>& attempt);
  void run_batch(runtime::Session& session, PendingRequest& request, Response& response);
  void run_sequence(stream::SequenceSession& stream, PendingRequest& request,
                    Response& response);
  void fulfill(PendingRequest& request, Response response);

  ServerConfig config_;
  runtime::PlanPtr plan_;
  BoundedQueue<PendingRequest> queue_;
  Telemetry telemetry_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> next_client_id_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Worker supervision: dead workers enqueue their id; the supervisor owns
  // joining and respawning them. shutdown() stops the supervisor before
  // joining workers_, so the two never touch a slot concurrently.
  std::thread supervisor_;
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  std::vector<int> dead_workers_;
  bool supervisor_stop_{false};

  // Brown-out state. The flag is read on every admission and worker pickup;
  // the EWMA itself only under the mutex (worker pickups contend rarely).
  std::atomic<bool> brownout_active_{false};
  std::mutex brownout_mutex_;
  double brownout_ewma_{0.0};
  bool brownout_seeded_{false};
};

}  // namespace esca::serve
