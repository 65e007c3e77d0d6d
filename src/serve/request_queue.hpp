// Bounded MPMC request queue in priority-FIFO order — the admission-control
// stage of the serving layer.
//
// Producers (client threads) call try_push(), which never blocks: a full
// queue rejects the item and the caller sheds the request immediately
// (backpressure is surfaced to the client instead of queueing unboundedly,
// the standard overload response for a latency-bound service). Consumers
// (worker threads) call pop(), which blocks until an item they may take
// arrives or the queue is closed; after close() the remaining items drain
// in order before pop() returns nullopt.
//
// Ordering: highest priority first, FIFO within a priority (a monotonic
// sequence number breaks ties), so equal-priority traffic keeps arrival
// order.
//
// Sticky consumers: an item pushed with a worker affinity is only handed to
// that worker (or to an affinity-blind pop(), which the shutdown drain
// uses) — the serving layer pins a stream's requests to the worker that
// owns the stream's incremental state. Items sharing a non-zero order key
// additionally drain strictly in push order: a stream's requests must
// replay in submission order no matter their priorities.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace esca::serve {

/// Scheduling attributes of one pushed item.
struct PushInfo {
  int priority{0};
  /// Consumer this item is pinned to; -1 = any consumer.
  int affinity{-1};
  /// Items sharing a non-zero order key are handed out strictly in push
  /// order, regardless of priority — the per-stream FIFO guarantee sticky
  /// streams rely on. 0 = unordered.
  std::uint64_t order_key{0};
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    ESCA_REQUIRE(capacity >= 1, "queue capacity must be >= 1, got " << capacity);
  }

  /// Non-blocking admission: false when the queue is full or closed (the
  /// caller sheds the request).
  bool try_push(T item, PushInfo info) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || slots_.size() >= capacity_) return false;
      slots_.push_back(Slot{std::move(item), info, next_seq_++});
    }
    // Affinity items must wake their owner, whichever waiter that is.
    ready_.notify_all();
    return true;
  }

  bool try_push(T item, int priority = 0) {
    return try_push(std::move(item), PushInfo{.priority = priority});
  }

  /// Blocks until an item this consumer may take is available, or the
  /// queue is closed (then drains eligible items before returning
  /// nullopt). `consumer` filters affinity-pinned items: only items with
  /// affinity -1 or == consumer are handed out; consumer -1 takes
  /// anything (the shutdown drain).
  std::optional<T> pop(int consumer = -1) {
    std::uint64_t order_key = 0;
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      std::size_t best = 0;
      ready_.wait(lock, [&] {
        best = best_eligible(consumer);
        return closed_ || best != kNone;
      });
      if (best == kNone) return std::nullopt;
      order_key = slots_[best].info.order_key;
      item = std::move(slots_[best].item);
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(best));
    }
    // Removing an ordered item may unblock its successor for a consumer
    // that was already asleep — wake the waiters to re-scan.
    if (order_key != 0) ready_.notify_all();
    return item;
  }

  /// Stop admitting; wake every blocked consumer once the backlog drains.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    T item;
    PushInfo info;
    std::uint64_t seq;
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// True when a should be served before b.
  static bool before(const Slot& a, const Slot& b) {
    if (a.info.priority != b.info.priority) return a.info.priority > b.info.priority;
    return a.seq < b.seq;
  }

  /// True when an earlier-pushed slot with the same (non-zero) order key is
  /// still queued — this slot must wait for it.
  bool blocked_by_order(const Slot& s) const {
    if (s.info.order_key == 0) return false;
    for (const Slot& other : slots_) {
      if (other.info.order_key == s.info.order_key && other.seq < s.seq) return true;
    }
    return false;
  }

  /// Index of the best slot `consumer` may take, or kNone. O(depth) scan
  /// (O(depth^2) when order keys are in play) — the queue is bounded and
  /// small by design.
  std::size_t best_eligible(int consumer) const {
    std::size_t best = kNone;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const int affinity = slots_[i].info.affinity;
      if (consumer >= 0 && affinity >= 0 && affinity != consumer) continue;
      if (blocked_by_order(slots_[i])) continue;
      if (best == kNone || before(slots_[i], slots_[best])) best = i;
    }
    return best;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<Slot> slots_;
  std::uint64_t next_seq_{0};
  bool closed_{false};
};

}  // namespace esca::serve
