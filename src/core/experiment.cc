#include "src/core/experiment.h"

#include "src/core/sweep_runner.h"
#include "src/util/check.h"
#include "src/util/str.h"

namespace webcc {

std::vector<double> LinSpace(double lo, double hi, size_t n) {
  WEBCC_CHECK_GE(n, 1);
  std::vector<double> out;
  out.reserve(n);
  if (n == 1) {
    out.push_back(lo);
    return out;
  }
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(lo + step * static_cast<double>(i));
  }
  return out;
}

std::vector<double> PaperThresholdPercents() { return LinSpace(0.0, 100.0, 21); }

std::vector<double> PaperTtlHours() { return LinSpace(0.0, 500.0, 21); }

SweepSeries SweepAlexThreshold(const Workload& load, const SimulationConfig& base_config,
                               const std::vector<double>& threshold_percents, size_t jobs) {
  return SweepRunner(jobs).SweepAlexThreshold(load, base_config, threshold_percents);
}

SweepSeries SweepTtlHours(const Workload& load, const SimulationConfig& base_config,
                          const std::vector<double>& ttl_hours, size_t jobs) {
  return SweepRunner(jobs).SweepTtlHours(load, base_config, ttl_hours);
}

SimulationResult RunInvalidation(const Workload& load, const SimulationConfig& base_config) {
  SimulationConfig config = base_config;
  config.policy = PolicyConfig::Invalidation();
  return RunSimulation(load, config);
}

ConsistencyMetrics AverageMetrics(const std::vector<ConsistencyMetrics>& metrics) {
  ConsistencyMetrics avg;
  if (metrics.empty()) {
    return avg;
  }
  const auto n = static_cast<uint64_t>(metrics.size());
  for (const ConsistencyMetrics& m : metrics) {
    avg.requests += m.requests;
    avg.cache_misses += m.cache_misses;
    avg.stale_hits += m.stale_hits;
    avg.validations += m.validations;
    avg.invalidations += m.invalidations;
    avg.files_transferred += m.files_transferred;
    avg.server_operations += m.server_operations;
    avg.control_bytes += m.control_bytes;
    avg.payload_bytes += m.payload_bytes;
    avg.total_bytes += m.total_bytes;
    avg.degraded_serves += m.degraded_serves;
    avg.failed_requests += m.failed_requests;
    avg.upstream_retries += m.upstream_retries;
    avg.invalidations_lost += m.invalidations_lost;
    avg.invalidations_queued += m.invalidations_queued;
    avg.invalidations_redelivered += m.invalidations_redelivered;
    avg.cache_crashes += m.cache_crashes;
    avg.unavailable_seconds += m.unavailable_seconds;
    avg.retry_wait_seconds += m.retry_wait_seconds;
  }
  avg.requests /= n;
  avg.cache_misses /= n;
  avg.stale_hits /= n;
  avg.validations /= n;
  avg.invalidations /= n;
  avg.files_transferred /= n;
  avg.server_operations /= n;
  avg.control_bytes /= static_cast<int64_t>(n);
  avg.payload_bytes /= static_cast<int64_t>(n);
  avg.total_bytes /= static_cast<int64_t>(n);
  avg.degraded_serves /= n;
  avg.failed_requests /= n;
  avg.upstream_retries /= n;
  avg.invalidations_lost /= n;
  avg.invalidations_queued /= n;
  avg.invalidations_redelivered /= n;
  avg.cache_crashes /= n;
  avg.unavailable_seconds /= static_cast<int64_t>(n);
  avg.retry_wait_seconds /= static_cast<int64_t>(n);
  return avg;
}

SweepSeries AverageSeries(const std::vector<SweepSeries>& runs) {
  WEBCC_CHECK(!runs.empty());
  SweepSeries avg;
  avg.label = runs.front().label + "(avg)";
  avg.param_name = runs.front().param_name;
  const size_t num_points = runs.front().points.size();
  for (const SweepSeries& run : runs) {
    WEBCC_CHECK_EQ(run.points.size(), num_points) << "sweeps must share the parameter grid";
  }
  for (size_t p = 0; p < num_points; ++p) {
    SweepPoint point;
    point.param = runs.front().points[p].param;
    std::vector<ConsistencyMetrics> metrics;
    metrics.reserve(runs.size());
    for (const SweepSeries& run : runs) {
      WEBCC_CHECK_EQ(run.points[p].param, point.param);
      metrics.push_back(run.points[p].result.metrics);
    }
    point.result.workload_name = "average";
    point.result.policy_desc = runs.front().points[p].result.policy_desc;
    point.result.metrics = AverageMetrics(metrics);
    avg.points.push_back(std::move(point));
  }
  return avg;
}

}  // namespace webcc
