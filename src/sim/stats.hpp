#pragma once

// Statistics accumulators used by benches and EXPERIMENTS.md tables.

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace bcs::sim {

/// Applies `op` field by field to two counter structs made only of
/// std::uint64_t fields (net::FabricStats, bcsmpi::RuntimeStats).  With
/// std::minus<>() it records what a stretch of work counted, with
/// std::plus<>() it adds that back later, without naming a single field;
/// the unsigned arithmetic is modulo 2^64 either way.
template <typename Counters, typename Op>
Counters zipCounters(const Counters& a, const Counters& b, Op op) {
  static_assert(std::is_trivially_copyable_v<Counters> &&
                sizeof(Counters) % sizeof(std::uint64_t) == 0);
  std::array<std::uint64_t, sizeof(Counters) / sizeof(std::uint64_t)> x, y;
  std::memcpy(x.data(), &a, sizeof a);
  std::memcpy(y.data(), &b, sizeof b);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = op(x[i], y[i]);
  Counters out = a;
  std::memcpy(static_cast<void*>(&out), x.data(), sizeof out);
  return out;
}

/// Streaming mean/variance (Welford) plus min/max.
class Accumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);

  void add(double x);
  std::uint64_t total() const { return total_; }

  /// Approximate quantile (0 <= q <= 1) by linear interpolation within the
  /// containing bucket.
  double quantile(double q) const;

  std::string render(int width = 50) const;  ///< ASCII art, for logs.

 private:
  double lo_, hi_, bucket_width_;
  std::vector<std::uint64_t> counts_;  // [under, b0..bn-1, over]
  std::uint64_t total_ = 0;
};

}  // namespace bcs::sim
