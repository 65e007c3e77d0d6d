#include "common/executor.hpp"

#include <algorithm>
#include <exception>

#include "common/env.hpp"
#include "fault/injector.hpp"

namespace esca {

namespace {

constexpr int kMaxThreads = 64;

int configured_threads() {
  if (const auto env = env_int("ESCA_THREADS", 1, kMaxThreads)) return static_cast<int>(*env);
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 8U));
}

/// Run one partition, handing back its exception instead of throwing it.
std::exception_ptr run_part(void (*fn)(void*, int), void* ctx, int part) noexcept {
  try {
    // Chaos site: a partition dying mid-fan-out (mid-diff, mid-patch phase,
    // mid-build, mid-apply) must surface as the fan-out's exception only
    // after its sibling partitions finished, leaving the executor usable.
    fault::maybe_throw("executor.task");
    fn(ctx, part);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

/// One fan-out, on its caller's stack. Queued while it has unclaimed
/// partitions; its caller returns only after `finished == parts`.
struct Executor::Job {
  Job(void (*fn_)(void*, int), void* ctx_, int parts_) : fn(fn_), ctx(ctx_), parts(parts_) {}

  void (*const fn)(void*, int);
  void* const ctx;
  const int parts;
  int next{0};      ///< next unclaimed partition (mu_)
  int finished{0};  ///< partitions run to completion (mu_)
  std::exception_ptr error;      ///< first partition exception (mu_)
  std::condition_variable done;  ///< the caller waits here for finished == parts
  Job* link{nullptr};            ///< next job in the queue (mu_)
};

Executor::Executor(int threads) {
  const int helpers = std::max(threads, 1) - 1;
  helpers_.reserve(static_cast<std::size_t>(helpers));
  for (int i = 0; i < helpers; ++i) helpers_.emplace_back([this] { helper_loop(); });
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

Executor& Executor::global() {
  static Executor executor(configured_threads());
  return executor;
}

void Executor::run(int parts, void (*fn)(void*, int), void* ctx) {
  if (parts <= 0) return;
  if (parts == 1) {
    fault::maybe_throw("executor.task");
    fn(ctx, 0);
    return;
  }
  Job job(fn, ctx, parts);
  std::unique_lock<std::mutex> lock(mu_);
  Job** tail = &queue_;
  while (*tail != nullptr) tail = &(*tail)->link;
  *tail = &job;
  work_cv_.notify_all();
  work(job, lock);
  job.done.wait(lock, [&] { return job.finished == job.parts; });
  lock.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

void Executor::work(Job& job, std::unique_lock<std::mutex>& lock) {
  while (job.next < job.parts) {
    const int part = job.next++;
    if (job.next == job.parts) {
      // Fully claimed: unqueue it, so nothing reaches it once its caller
      // returns.
      Job** slot = &queue_;
      while (*slot != &job) slot = &(*slot)->link;
      *slot = job.link;
    }
    lock.unlock();
    std::exception_ptr error = run_part(job.fn, job.ctx, part);
    lock.lock();
    if (error && !job.error) job.error = std::move(error);
    // Notified under the lock: the caller cannot see finished == parts and
    // destroy the job before this thread lets go of it.
    if (++job.finished == job.parts) job.done.notify_one();
  }
}

void Executor::helper_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || queue_ != nullptr; });
    if (queue_ == nullptr) return;
    work(*queue_, lock);
  }
}

}  // namespace esca
