// Streaming statistics used by the simulator and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace esca {

/// Welford running mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Log-spaced histogram over [lo, hi): bucket edges grow geometrically, so
/// one instance resolves values spanning several decades (e.g. request
/// latencies from microseconds to seconds) with bounded relative error.
/// Samples below lo / at or above hi clamp to the first/last bucket.
class LogHistogram {
 public:
  /// `buckets_per_decade` buckets for every 10x of range (>= 1).
  LogHistogram(double lo, double hi, std::size_t buckets_per_decade = 16);

  /// Rebuild a histogram from externally accumulated per-bucket counts with
  /// the same shape (the obs registry keeps its buckets in relaxed atomics
  /// and reconstitutes a LogHistogram on read). `counts.size()` must equal
  /// the bucket count of LogHistogram(lo, hi, buckets_per_decade).
  static LogHistogram from_counts(double lo, double hi, std::size_t buckets_per_decade,
                                  const std::vector<std::int64_t>& counts);

  void add(double x);
  /// The bucket add(x) would increment — exposed so external accumulators
  /// (obs::HistogramMetric) share this exact bucketing math.
  std::size_t bucket_index(double x) const;
  std::int64_t total() const { return total_; }
  std::size_t buckets() const { return counts_.size(); }
  std::int64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  /// Value at quantile q in [0, 1], geometrically interpolated inside the
  /// bucket that crosses the target rank. 0 while empty.
  double quantile(double q) const;

  /// Fold another histogram with identical bucketing into this one.
  void merge(const LogHistogram& other);

 private:
  double log_lo_;
  double log_step_;  ///< log-domain bucket width
  std::vector<std::int64_t> counts_;
  std::int64_t total_{0};
};

}  // namespace esca
