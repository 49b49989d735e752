// Host-side measurement helpers for the benchmark harness: clocks, memory,
// machine load, and a histogram for per-request timings. Order statistics
// over samples come from src/util/stats.h (webcc::Median, webcc::Quantile).
//
// Every number the harness reports is host time or host memory, never
// simulated time; simulated results are only ever digested and compared.

#ifndef WEBCC_BENCHMARK_HARNESS_PROBE_H_
#define WEBCC_BENCHMARK_HARNESS_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace webcc::bench {

// Monotonic host wall clock (steady_clock), in nanoseconds.
int64_t WallNanos();
// CPU time of the whole process (all threads, the software task clock).
int64_t ProcessCpuNanos();
// CPU time of the calling thread.
int64_t ThreadCpuNanos();
// Median cost of one WallNanos() call, measured back to back; subtracted
// from spans that wrap very short calls.
int64_t ClockCostNanos();

// Peak resident set size of this process so far, in MB (2^20 bytes).
double PeakRssMb();

// Online CPUs and the 1-minute load average, for the run-context lines.
size_t Nproc();
double LoadAverage1m();

// Log-linear histogram of non-negative integer samples (16 sub-buckets per
// power of two, so quantiles are within ~6 %), for per-request timings too
// numerous to keep one by one.
class LogHistogram {
 public:
  void Add(int64_t value);  // negative values count as 0
  [[nodiscard]] double Quantile(double q) const;

 private:
  static constexpr int kSub = 16;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(1024, 0);
  uint64_t count_ = 0;
};

// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run hands back to main(): the output-check verdict,
// the fail_share numerator/denominator, and its metrics.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  // Counts `checked` outputs toward fail_share, `failures` of them failed;
  // any failure also makes the run incorrect.
  void AddChecks(uint64_t checked, uint64_t failures) {
    attempted += checked;
    failed += failures;
    correct = correct && failures == 0;
  }
  // Counts `checked` outputs that all pass or all fail.
  void Check(bool ok, uint64_t checked = 1) { AddChecks(checked, ok ? 0 : checked); }
};

// The --workload/--seed/--seconds/--trace contract plus the harness's own
// file locations (all inside the checkout).
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool print_digests = false;  // print this seed's digest line and exit
  std::string digests_path;
  std::string out_dir;
};

}  // namespace webcc::bench

#endif  // WEBCC_BENCHMARK_HARNESS_PROBE_H_
