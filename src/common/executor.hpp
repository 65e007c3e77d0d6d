// One process-wide fork-join executor for all intra-frame parallelism.
//
// The paper's ESCA streams every layer's matched pairs through one fixed
// computing array; on the host side the same role falls to one fixed set
// of threads, started once and shared by the compute engine's out-row
// block partitions, the cold geometry builders, the stream frame diff and
// the phases of the sharded stream patch.
//
// parallel_for(parts, fn) runs fn(0) .. fn(parts - 1) and returns when all
// of them have finished. The caller claims partitions too, so a fan-out
// never waits for a free helper: a nested fan-out (a partition that fans
// out again) and concurrent fan-outs from several serve workers finish on
// their callers when the helpers are busy. Threads therefore never exceed
// the callers plus size() - 1 helpers, and no fan-out can deadlock.
//
// A partition index, never the thread that runs it, decides what work a
// partition does; callers that write per-partition slices and combine them
// in partition order get the same bits at any executor size.
//
// Sizing: the ESCA_THREADS environment variable (1..64), otherwise the
// hardware concurrency capped at 8. ESCA_THREADS=1 starts no helper and
// runs every partition on its caller.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace esca {

class Executor {
 public:
  /// `threads` - 1 helpers (none when threads <= 1), started here and
  /// parked until a fan-out arrives; the caller of each fan-out is the
  /// last thread.
  explicit Executor(int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor (ESCA_THREADS), started on first use.
  static Executor& global();

  /// Threads that can run partitions of one fan-out: the helpers plus the
  /// caller.
  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Run fn(part) for every part in [0, parts). Returns once every
  /// partition has finished; if any threw, the first exception is rethrown
  /// then. A single partition runs inline on the caller. Dispatch allocates
  /// nothing: the job lives on the caller's stack.
  template <typename Fn>
  void parallel_for(int parts, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run(parts, [](void* ctx, int part) { (*static_cast<F*>(ctx))(part); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  struct Job;

  void run(int parts, void (*fn)(void*, int), void* ctx);
  void work(Job& job, std::unique_lock<std::mutex>& lock);
  void helper_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< helpers wait here for a queued job
  Job* queue_{nullptr};  ///< FIFO of jobs with unclaimed partitions (mu_)
  bool stop_{false};     ///< (mu_)
  std::vector<std::thread> helpers_;  ///< last: helpers use the members above
};

}  // namespace esca
