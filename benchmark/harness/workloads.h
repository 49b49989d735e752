// The benchmark's three workloads. Each runner sets up, warms up, measures
// for RunOptions::seconds, checks its outputs, and returns every end-to-end
// metric (untraced passes) and, when traced, every per-layer metric it
// exercises. benchmark/METRICS.md maps each metric to its definition and to
// the workloads that move it.

#ifndef WEBCC_BENCHMARK_HARNESS_WORKLOADS_H_
#define WEBCC_BENCHMARK_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/probe.h"
#include "harness/trace.h"

namespace webcc::bench {

RunResult RunPaperSweep(const RunOptions& options, Tracer& tracer);
RunResult RunTopologyFaults(const RunOptions& options, Tracer& tracer);
RunResult RunServeOpen(const RunOptions& options, Tracer& tracer);

// Host cost of one timed pass over a workload's runs.
struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t requests = 0;     // requests replayed or processed
  uint64_t ok_requests = 0;  // of which answered without degradation or failure
};

// The shared end-to-end metrics of a run, as medians over its samples.
struct EndToEnd {
  double setup_s = 0.0;
  double replay_mreq_per_s = 0.0;
  double cpu_ns_per_req = 0.0;
  double goodput_kreq_per_s = 0.0;
  double ok_share = 1.0;
};
EndToEnd SummarizePasses(const std::vector<PassSample>& passes, double setup_s);
// The six end-to-end metrics in BENCHMARK.json order (peak RSS read now).
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);
// Prints the traced and untraced end-to-end numbers side by side.
void PrintTracingOverhead(const EndToEnd& untraced, const EndToEnd& traced);
// (value / base - 1) in percent; 0 when base is 0.
double PercentAbove(double value, double base);

}  // namespace webcc::bench

#endif  // WEBCC_BENCHMARK_HARNESS_WORKLOADS_H_
