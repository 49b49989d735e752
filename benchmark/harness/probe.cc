#include "harness/probe.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdlib>
#include <thread>

namespace webcc::bench {

namespace {

int64_t ClockNanos(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNanos() { return ClockNanos(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

int64_t ClockCostNanos() {
  std::vector<double> costs;
  costs.reserve(64);
  for (int round = 0; round < 64; ++round) {
    constexpr int kCalls = 256;
    const int64_t start = WallNanos();
    for (int i = 0; i < kCalls; ++i) {
      (void)WallNanos();  // an opaque clock read; the compiler cannot drop it
    }
    const int64_t end = WallNanos();
    costs.push_back(static_cast<double>(end - start) / kCalls);
  }
  return static_cast<int64_t>(Median(costs));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

size_t Nproc() {
  // Like nproc(1): the CPUs this process may run on, so a run under
  // `taskset` also runs its pools at that width.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double LoadAverage1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

void LogHistogram::Add(int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  size_t index = v;
  if (v >= kSub) {
    const int exponent = 63 - __builtin_clzll(v);  // >= 4
    const uint64_t mantissa = (v >> (exponent - 4)) - kSub;
    index = kSub + static_cast<size_t>(exponent - 4) * kSub + mantissa;
  }
  ++buckets_[index];
  ++count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen > rank) {
      if (index < kSub) {
        return static_cast<double>(index);
      }
      const size_t exponent = (index - kSub) / kSub + 4;
      const size_t mantissa = (index - kSub) % kSub;
      const double width = static_cast<double>(uint64_t{1} << (exponent - 4));
      return static_cast<double>(kSub + mantissa) * width + width / 2.0;
    }
  }
  return 0.0;
}

}  // namespace webcc::bench
