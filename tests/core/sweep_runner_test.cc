#include "src/core/sweep_runner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/workload/worrell.h"

namespace webcc {
namespace {

Workload TinyWorkload(uint64_t seed = 99) {
  WorrellConfig config;
  config.num_files = 50;
  config.duration = Days(7);
  config.requests_per_second = 0.02;
  config.seed = seed;
  return GenerateWorrellWorkload(config);
}

// Exact equality on every field, doubles included: the whole point of the
// parallel executor is that jobs=N reproduces jobs=1 bit for bit, so an
// almost-equal comparison here would hide the exact class of bug this test
// exists to catch.
void ExpectSameMetrics(const ConsistencyMetrics& a, const ConsistencyMetrics& b,
                       const std::string& where) {
  EXPECT_EQ(a.requests, b.requests) << where;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << where;
  EXPECT_EQ(a.stale_hits, b.stale_hits) << where;
  EXPECT_EQ(a.validations, b.validations) << where;
  EXPECT_EQ(a.invalidations, b.invalidations) << where;
  EXPECT_EQ(a.files_transferred, b.files_transferred) << where;
  EXPECT_EQ(a.server_operations, b.server_operations) << where;
  EXPECT_EQ(a.control_bytes, b.control_bytes) << where;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << where;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << where;
  EXPECT_EQ(a.mean_round_trips, b.mean_round_trips) << where;
  EXPECT_EQ(a.degraded_serves, b.degraded_serves) << where;
  EXPECT_EQ(a.failed_requests, b.failed_requests) << where;
  EXPECT_EQ(a.upstream_retries, b.upstream_retries) << where;
  EXPECT_EQ(a.invalidations_lost, b.invalidations_lost) << where;
  EXPECT_EQ(a.invalidations_queued, b.invalidations_queued) << where;
  EXPECT_EQ(a.invalidations_redelivered, b.invalidations_redelivered) << where;
  EXPECT_EQ(a.cache_crashes, b.cache_crashes) << where;
  EXPECT_EQ(a.unavailable_seconds, b.unavailable_seconds) << where;
  EXPECT_EQ(a.retry_wait_seconds, b.retry_wait_seconds) << where;
}

void ExpectSameSeries(const SweepSeries& a, const SweepSeries& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.param_name, b.param_name);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].param, b.points[i].param) << "point " << i;
    EXPECT_EQ(a.points[i].result.policy_desc, b.points[i].result.policy_desc)
        << "point " << i;
    ExpectSameMetrics(a.points[i].result.metrics, b.points[i].result.metrics,
                      "point " + std::to_string(i));
  }
}

TEST(SweepRunnerTest, AlexSweepParallelMatchesSerialExactly) {
  const Workload load = TinyWorkload();
  const auto config = SimulationConfig::Optimized(PolicyConfig::Alex(0));
  const std::vector<double> axis = {0, 10, 25, 50, 75, 90, 100};

  SweepRunner serial(1);
  SweepRunner parallel(8);
  ASSERT_EQ(serial.jobs(), 1u);
  ASSERT_EQ(parallel.jobs(), 8u);

  ExpectSameSeries(serial.SweepAlexThreshold(load, config, axis),
                   parallel.SweepAlexThreshold(load, config, axis));
}

TEST(SweepRunnerTest, TtlSweepParallelMatchesSerialExactly) {
  const Workload load = TinyWorkload();
  const auto config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(1)));
  const std::vector<double> axis = {0, 1, 12, 48, 125, 500};

  SweepRunner serial(1);
  SweepRunner parallel(8);

  ExpectSameSeries(serial.SweepTtlHours(load, config, axis),
                   parallel.SweepTtlHours(load, config, axis));
}

TEST(SweepRunnerTest, LossRateSweepParallelMatchesSerialExactly) {
  // The fault plan is owned per sweep point, so a faulted sweep must stay
  // bit-identical across jobs counts exactly like the clean ones — including
  // every failure-aware counter.
  const Workload load = TinyWorkload();
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  config.faults.server_downtime.push_back(
      {SimTime::Epoch() + Days(2), SimTime::Epoch() + Days(2) + Hours(6)});
  const std::vector<double> axis = {0, 0.05, 0.2, 0.5};

  ExpectSameSeries(SweepLossRate(load, config, axis, /*jobs=*/1),
                   SweepLossRate(load, config, axis, /*jobs=*/8));
}

TEST(SweepRunnerTest, MatchesFreeFunctionEntryPoints) {
  // The experiment.h wrappers delegate here; pin that equivalence so callers
  // can switch between them without changing results.
  const Workload load = TinyWorkload();
  const auto config = SimulationConfig::Optimized(PolicyConfig::Alex(0));
  const std::vector<double> axis = {0, 50, 100};

  ExpectSameSeries(SweepAlexThreshold(load, config, axis, /*jobs=*/4),
                   SweepRunner(1).SweepAlexThreshold(load, config, axis));
}

TEST(SweepRunnerTest, ManyVariantMatchesPerWorkloadLoop) {
  // Three distinct workloads through the flattened task grid must reproduce
  // the serial one-workload-at-a-time loop, series by series.
  const std::vector<Workload> loads = {TinyWorkload(1), TinyWorkload(2), TinyWorkload(3)};
  const auto config = SimulationConfig::Optimized(PolicyConfig::Alex(0));
  const std::vector<double> axis = {0, 25, 50, 100};

  SweepRunner serial(1);
  SweepRunner parallel(8);

  const std::vector<SweepSeries> grid = parallel.SweepAlexThresholdMany(loads, config, axis);
  ASSERT_EQ(grid.size(), loads.size());
  for (size_t w = 0; w < loads.size(); ++w) {
    ExpectSameSeries(serial.SweepAlexThreshold(loads[w], config, axis), grid[w]);
  }
}

TEST(SweepRunnerTest, TtlManyVariantMatchesPerWorkloadLoop) {
  const std::vector<Workload> loads = {TinyWorkload(4), TinyWorkload(5)};
  const auto config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(1)));
  const std::vector<double> axis = {0, 125, 500};

  SweepRunner serial(1);
  SweepRunner parallel(8);

  const std::vector<SweepSeries> grid = parallel.SweepTtlHoursMany(loads, config, axis);
  ASSERT_EQ(grid.size(), loads.size());
  for (size_t w = 0; w < loads.size(); ++w) {
    ExpectSameSeries(serial.SweepTtlHours(loads[w], config, axis), grid[w]);
  }
}

TEST(SweepRunnerTest, RunInvalidationManyMatchesSerial) {
  const std::vector<Workload> loads = {TinyWorkload(6), TinyWorkload(7)};
  const auto config = SimulationConfig::Optimized(PolicyConfig::Alex(0.5));

  SweepRunner parallel(8);
  const std::vector<SimulationResult> results = parallel.RunInvalidationMany(loads, config);
  ASSERT_EQ(results.size(), loads.size());
  for (size_t w = 0; w < loads.size(); ++w) {
    const SimulationResult serial = RunInvalidation(loads[w], config);
    EXPECT_EQ(results[w].policy_desc, serial.policy_desc);
    ExpectSameMetrics(results[w].metrics, serial.metrics, "workload " + std::to_string(w));
  }
}

TEST(SweepRunnerTest, RunPreservesSpecOrder) {
  // Results land by spec index, not completion order: a descending axis must
  // come back descending.
  const Workload load = TinyWorkload();
  const auto base = SimulationConfig::Optimized(PolicyConfig::Alex(0));
  std::vector<SweepPointSpec> specs;
  for (double pct : {100.0, 50.0, 0.0}) {
    SweepPointSpec spec;
    spec.param = pct;
    spec.config = base;
    spec.config.policy = PolicyConfig::Alex(pct / 100.0);
    specs.push_back(spec);
  }

  SweepRunner parallel(8);
  const SweepSeries series = parallel.Run("alex", "threshold_pct", load, specs);
  ASSERT_EQ(series.points.size(), 3u);
  EXPECT_EQ(series.points[0].param, 100.0);
  EXPECT_EQ(series.points[1].param, 50.0);
  EXPECT_EQ(series.points[2].param, 0.0);
}

TEST(SweepRunnerTest, JobsZeroResolvesToAtLeastOne) {
  SweepRunner runner(0);
  EXPECT_GE(runner.jobs(), 1u);
}

}  // namespace
}  // namespace webcc
