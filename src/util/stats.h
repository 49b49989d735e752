// Small statistics helpers used by workload calibration, trace analysis, and
// the test suite's statistical assertions.

#ifndef WEBCC_SRC_UTIL_STATS_H_
#define WEBCC_SRC_UTIL_STATS_H_

#include <cstdint>
#include <vector>

namespace webcc {

// Streaming mean/variance/min/max via Welford's algorithm. O(1) memory.
class RunningStat {
 public:
  void Add(double x);

  [[nodiscard]] int64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStat& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact quantile of a sample by sorting a copy. q in [0, 1]; linear
// interpolation between order statistics. Returns 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> values, double q);

// Median convenience wrapper.
[[nodiscard]] double Median(std::vector<double> values);

}  // namespace webcc

#endif  // WEBCC_SRC_UTIL_STATS_H_
