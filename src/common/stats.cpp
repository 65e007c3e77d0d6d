#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace esca {

void RunningStat::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

namespace {

/// Rank-crossing bucket for quantile q plus how far into it the rank lands.
/// Returns false while the histogram is empty.
bool quantile_bucket(const std::vector<std::int64_t>& counts, std::int64_t total, double q,
                     std::size_t& bucket, double& fraction) {
  if (total <= 0) return false;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      bucket = i;
      fraction = counts[i] > 0
                     ? std::clamp((rank - static_cast<double>(seen)) /
                                      static_cast<double>(counts[i]),
                                  0.0, 1.0)
                     : 0.0;
      return true;
    }
    seen += counts[i];
  }
  bucket = counts.size() - 1;
  fraction = 1.0;
  return true;
}

}  // namespace

LogHistogram::LogHistogram(double lo, double hi, std::size_t buckets_per_decade) {
  ESCA_REQUIRE(lo > 0.0 && hi > lo, "LogHistogram: needs 0 < lo < hi");
  ESCA_REQUIRE(buckets_per_decade >= 1, "LogHistogram: needs at least one bucket per decade");
  log_lo_ = std::log10(lo);
  log_step_ = 1.0 / static_cast<double>(buckets_per_decade);
  const double decades = std::log10(hi) - log_lo_;
  const auto n = static_cast<std::size_t>(std::ceil(decades / log_step_));
  counts_.assign(std::max<std::size_t>(n, 1), 0);
}

LogHistogram LogHistogram::from_counts(double lo, double hi, std::size_t buckets_per_decade,
                                       const std::vector<std::int64_t>& counts) {
  LogHistogram h(lo, hi, buckets_per_decade);
  ESCA_REQUIRE(counts.size() == h.counts_.size(),
               "LogHistogram::from_counts: got " << counts.size() << " buckets, shape has "
                                                 << h.counts_.size());
  h.counts_ = counts;
  for (const std::int64_t c : counts) h.total_ += c;
  return h;
}

std::size_t LogHistogram::bucket_index(double x) const {
  std::int64_t idx = 0;
  if (x > 0.0) {
    idx = static_cast<std::int64_t>(std::floor((std::log10(x) - log_lo_) / log_step_));
  }
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  return static_cast<std::size_t>(idx);
}

void LogHistogram::add(double x) {
  ++counts_[bucket_index(x)];
  ++total_;
}

double LogHistogram::bucket_lo(std::size_t i) const {
  return std::pow(10.0, log_lo_ + log_step_ * static_cast<double>(i));
}

double LogHistogram::bucket_hi(std::size_t i) const { return bucket_lo(i + 1); }

double LogHistogram::quantile(double q) const {
  std::size_t bucket = 0;
  double fraction = 0.0;
  if (!quantile_bucket(counts_, total_, q, bucket, fraction)) return 0.0;
  // Geometric interpolation: linear in the log domain, like the buckets.
  return std::pow(10.0, log_lo_ + log_step_ * (static_cast<double>(bucket) + fraction));
}

void LogHistogram::merge(const LogHistogram& other) {
  ESCA_REQUIRE(other.counts_.size() == counts_.size() && other.log_lo_ == log_lo_ &&
                   other.log_step_ == log_step_,
               "LogHistogram::merge: bucketing differs");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

}  // namespace esca
