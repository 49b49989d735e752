// Parameter sweeps: the machinery behind every figure.
//
// Each figure plots one or two protocol families against the invalidation
// protocol's constant. A sweep replays the *same* workload once per
// parameter value; determinism of RunSimulation makes points comparable.

#ifndef WEBCC_SRC_CORE_EXPERIMENT_H_
#define WEBCC_SRC_CORE_EXPERIMENT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/simulation.h"
#include "src/workload/workload.h"

namespace webcc {

struct SweepPoint {
  double param = 0.0;  // update threshold in percent, or TTL in hours
  SimulationResult result;
};

struct SweepSeries {
  std::string label;
  std::string param_name;  // "threshold_pct" or "ttl_hours"
  std::vector<SweepPoint> points;
};

// Evenly spaced values in [lo, hi] inclusive (n >= 2), or {lo} when n == 1.
std::vector<double> LinSpace(double lo, double hi, size_t n);

// The paper's figure axes.
std::vector<double> PaperThresholdPercents();  // 0..100 step 5
std::vector<double> PaperTtlHours();           // 0..500 step 25

// Sweeps the Alex update threshold (percent values, e.g. {0, 5, ..., 100}).
// `jobs` selects the executor: 1 = serial, 0 = auto (WEBCC_JOBS env, else
// hardware concurrency), N = N threads. Points are independent deterministic
// runs, so the result is bit-identical for every jobs value; see
// src/core/sweep_runner.h for the full argument.
SweepSeries SweepAlexThreshold(const Workload& load, const SimulationConfig& base_config,
                               const std::vector<double>& threshold_percents, size_t jobs = 1);

// Sweeps the fixed TTL (hour values, e.g. {0, 25, ..., 500}).
SweepSeries SweepTtlHours(const Workload& load, const SimulationConfig& base_config,
                          const std::vector<double>& ttl_hours, size_t jobs = 1);

// The invalidation protocol has no parameter; a single run.
SimulationResult RunInvalidation(const Workload& load, const SimulationConfig& base_config);

// Runs the same sweep over several workloads and averages the metrics
// point-wise — Figure 6/7's "averages of the FAS, HCS, and DAS traces".
SweepSeries AverageSeries(const std::vector<SweepSeries>& runs);
ConsistencyMetrics AverageMetrics(const std::vector<ConsistencyMetrics>& metrics);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_EXPERIMENT_H_
