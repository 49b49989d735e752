// Differential tests of the replay kernel's two orders (src/core/replay.h):
// a separable config, walked object by object, must give the time-ordered
// walk's SimulationResult field for field. A no-op SimObserver makes any
// config non-separable, so the same config with one attached is the
// reference walk.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/generator.h"
#include "src/core/replay.h"
#include "src/core/simulation.h"
#include "src/core/sweep_runner.h"
#include "src/workload/campus.h"
#include "src/workload/registry.h"
#include "src/workload/worrell.h"
#include "tests/core/identical_results.h"

namespace webcc {
namespace {

SimTime At(int64_t hours) { return SimTime::Epoch() + Hours(hours); }

class NoOpObserver final : public SimObserver {};

// RunSimulation of `config` in time order.
SimulationResult RunTimeOrdered(const Workload& load, SimulationConfig config) {
  NoOpObserver observer;
  config.observer = &observer;
  return RunSimulation(load, config);
}

// The paper-grid Worrell stream cut to 300 files over 28 days.
Workload ReducedWorrell() {
  WorrellConfig config;
  config.num_files = 300;
  config.duration = Days(28);
  config.requests_per_second = 0.05;
  return GenerateWorrellWorkload(config);
}

TEST(ObjectIndexTest, GroupsEventsByObjectInScheduleOrder) {
  Workload load;
  load.name = "index";
  for (int i = 0; i < 3; ++i) {
    load.objects.push_back(ObjectSpec{"/o" + std::to_string(i), FileType::kHtml, 100, Days(1)});
  }
  load.horizon = SimTime::Epoch() + Days(2);
  // Object 0 changes twice at hour 5; the sizes tell the two apart.
  load.modifications = {{At(5), 0, 10}, {At(5), 2, -1}, {At(5), 0, 20}, {At(9), 2, 30}};
  load.requests = {{At(1), 2, 0, false}, {At(2), 0, 1, false}, {At(5), 2, 0, false},
                   {At(7), 0, 0, false}, {At(8), 0, 3, true}};
  ASSERT_TRUE(load.Validate().empty());

  const ObjectIndex index(load);
  ASSERT_EQ(index.objects(), 3u);
  EXPECT_EQ(index.requests(), 5u);
  EXPECT_EQ(index.modifications(), 4u);
  EXPECT_EQ(std::vector<SimTime>(index.RequestTimes(0).begin(), index.RequestTimes(0).end()),
            (std::vector<SimTime>{At(2), At(7), At(8)}));
  EXPECT_TRUE(index.RequestTimes(1).empty());
  EXPECT_TRUE(index.Modifications(1).empty());
  EXPECT_EQ(std::vector<SimTime>(index.RequestTimes(2).begin(), index.RequestTimes(2).end()),
            (std::vector<SimTime>{At(1), At(5)}));
  ASSERT_EQ(index.Modifications(0).size(), 2u);
  EXPECT_EQ(index.Modifications(0)[0].new_size, 10);
  EXPECT_EQ(index.Modifications(0)[1].new_size, 20);
  ASSERT_EQ(index.Modifications(2).size(), 2u);
  EXPECT_EQ(index.Modifications(2)[0].at, At(5));
  EXPECT_EQ(index.Modifications(2)[1].at, At(9));
}

// The positive list: each feature outside it takes a separable config off it.
TEST(ObjectOrderReplayTest, SeparableIsAPositiveList) {
  for (const PolicyConfig& policy :
       {PolicyConfig::Ttl(Hours(5)), PolicyConfig::Alex(0.1), PolicyConfig::Cern(0.1, Days(2)),
        PolicyConfig::Invalidation(), PolicyConfig::Invalidation(Hours(1))}) {
    for (SimulationConfig config : {SimulationConfig::Base(policy),
                                    SimulationConfig::Optimized(policy),
                                    SimulationConfig::TraceDriven(policy)}) {
      SCOPED_TRACE(policy.Describe());
      EXPECT_TRUE(Separable(config));
      config.preload = false;
      EXPECT_TRUE(Separable(config));
    }
  }
  EXPECT_FALSE(Separable(SimulationConfig::Optimized(PolicyConfig::Adaptive())));

  NoOpObserver observer;
  const SimulationConfig separable = SimulationConfig::Optimized(PolicyConfig::Alex(0.1));
  std::vector<SimulationConfig> off(7, separable);
  off[0].faults.armed = true;
  off[1].faults.loss_rate = 0.1;
  off[2].observer = &observer;
  off[3].warmup = Days(1);
  off[4].faults.snapshot_crash_request = 0;
  off[5].cache_capacity_bytes = 1 << 20;
  off[6].policy_factory = [] { return MakePolicy(PolicyConfig::Alex(0.1)); };
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_FALSE(Separable(off[i])) << "row " << i;
  }
}

// Figs 2-5's axes on one grid over two threads, so the points share the
// grid's one index, each against its own time-ordered run.
TEST(ObjectOrderReplayTest, PaperGridMatchesTimeOrder) {
  const Workload load = ReducedWorrell();
  std::vector<SweepPointSpec> specs;
  for (const SimulationConfig& base : {SimulationConfig::Base(PolicyConfig::Invalidation()),
                                       SimulationConfig::Optimized(PolicyConfig::Invalidation())}) {
    for (const double pct : {0.0, 5.0, 10.0, 50.0, 100.0}) {
      specs.push_back({pct, base});
      specs.back().config.policy = PolicyConfig::Alex(pct / 100.0);
    }
    for (const double hours : {0.0, 25.0, 100.0, 500.0}) {
      specs.push_back({hours, base});
      specs.back().config.policy = PolicyConfig::Ttl(HoursF(hours));
    }
    specs.push_back({0.0, base});
  }
  SweepRunner runner(2);
  const SweepSeries grid = runner.Run("paper", "param", load, specs);
  ASSERT_EQ(grid.points.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const SimulationConfig& config = specs[i].config;
    SCOPED_TRACE(config.policy.Describe() +
                 (config.refresh_mode == RefreshMode::kFullRefetch ? " / base" : " / optimized"));
    ASSERT_TRUE(Separable(config));
    ExpectIdenticalResults(grid.points[i].result, RunTimeOrdered(load, config));
  }
}

// The campus traces' log-inferred modification schedules, bursts included,
// under each separable policy family.
TEST(ObjectOrderReplayTest, CampusTracesMatchTimeOrder) {
  for (const CampusServerProfile& profile : CampusServerProfile::AllTable1()) {
    const Workload& load = SharedCampusTraceWorkload(profile);
    for (const PolicyConfig& policy :
         {PolicyConfig::Ttl(Hours(10)), PolicyConfig::Alex(0.1),
          PolicyConfig::Cern(0.1, Days(2)), PolicyConfig::Invalidation(Hours(1))}) {
      const SimulationConfig config = SimulationConfig::TraceDriven(policy);
      SCOPED_TRACE(load.name + " / " + policy.Describe());
      ASSERT_TRUE(Separable(config));
      ExpectIdenticalResults(RunSimulation(load, config), RunTimeOrdered(load, config));
    }
  }
}

// Chaos-drawn configs (workload shape, policy, preload, refresh mode,
// capacity) with their faults, observer and factory stripped.
TEST(ObjectOrderReplayTest, ChaosTrialConfigsMatchTimeOrder) {
  size_t separable = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    const TrialSpec spec = GenerateTrial(/*campaign_seed=*/1, i);
    SimulationConfig config = spec.config;
    config.faults = FaultConfig{};
    config.observer = nullptr;
    config.policy_factory = nullptr;
    separable += Separable(config) ? 1 : 0;
    const Workload& load = SharedTrialWorkload(spec);
    SCOPED_TRACE(spec.Describe());
    ExpectIdenticalResults(RunSimulation(load, config), RunTimeOrdered(load, config));
  }
  EXPECT_GE(separable, 30u);
}

}  // namespace
}  // namespace webcc
