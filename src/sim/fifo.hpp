// Bounded FIFO with occupancy statistics.
//
// Models a hardware FIFO: fixed capacity, push fails when full (the caller
// stalls), pop fails when empty. Storage is one ring allocated at
// construction, so pushing and popping never allocate. High-water mark and
// stall counts feed the FIFO-depth ablation bench.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace esca::sim {

template <typename T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity) : slots_(capacity) {
    ESCA_REQUIRE(capacity > 0, "FIFO capacity must be positive");
  }

  bool full() const { return size_ == slots_.size(); }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Attempt to enqueue; returns false (and counts a stall) when full.
  bool try_push(T value) {
    if (full()) {
      ++push_stalls_;
      return false;
    }
    slots_[wrap(head_ + size_)] = std::move(value);
    ++size_;
    ++total_pushed_;
    high_water_ = std::max(high_water_, size_);
    return true;
  }

  /// Enqueue or die; use where the surrounding control logic guarantees room.
  void push(T value) {
    ESCA_CHECK(try_push(std::move(value)), "push into full FIFO (capacity " << capacity() << ")");
  }

  std::optional<T> try_pop() {
    if (empty()) {
      ++pop_stalls_;
      return std::nullopt;
    }
    T v = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  const T& front() const {
    ESCA_CHECK(!empty(), "front() on empty FIFO");
    return slots_[head_];
  }
  T& front() {
    ESCA_CHECK(!empty(), "front() on empty FIFO");
    return slots_[head_];
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  // --- statistics -----------------------------------------------------------
  std::size_t high_water() const { return high_water_; }
  std::int64_t total_pushed() const { return total_pushed_; }
  std::int64_t push_stalls() const { return push_stalls_; }
  std::int64_t pop_stalls() const { return pop_stalls_; }
  void reset_stats() {
    high_water_ = size_;
    total_pushed_ = 0;
    push_stalls_ = 0;
    pop_stalls_ = 0;
  }

 private:
  /// Index arithmetic stays below twice the capacity, so one subtraction wraps.
  std::size_t wrap(std::size_t index) const {
    return index >= slots_.size() ? index - slots_.size() : index;
  }

  std::vector<T> slots_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t high_water_{0};
  std::int64_t total_pushed_{0};
  std::int64_t push_stalls_{0};
  std::int64_t pop_stalls_{0};
};

}  // namespace esca::sim
