// End-to-end tests of the fault-injected simulation path: the armed-but-idle
// no-op property, fixed-seed reproducibility, and the observable behaviours
// of loss, downtime, and crash/restart (docs/ROBUSTNESS.md).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/workload/campus.h"
#include "tests/core/identical_results.h"

namespace webcc {
namespace {

SimTime At(int64_t hours) { return SimTime::Epoch() + Hours(hours); }

// One 6000-byte object modified at hour 10, requests at hours 1, 2, 12, 20
// (the same micro-workload the accounting tests hand-verify).
Workload MicroWorkload(std::vector<int64_t> request_hours = {1, 2, 12, 20}) {
  Workload load;
  load.name = "micro";
  load.objects.push_back(ObjectSpec{"/m.html", FileType::kHtml, 6000, Days(10)});
  load.horizon = SimTime::Epoch() + Days(2);
  load.modifications.push_back(ModificationEvent{At(10), 0, -1});
  for (int64_t h : request_hours) {
    load.requests.push_back(RequestEvent{At(h), 0, 0, false});
  }
  load.Finalize();
  return load;
}

// Records every modification and serve an observer sees, one line each, so
// two runs' observer streams compare as a whole.
class ServeRecorder final : public SimObserver {
 public:
  void OnModification(ObjectId object, SimTime at) override {
    lines.push_back("mod " + std::to_string(object) + " " + std::to_string(at.seconds()));
  }
  void OnServe(const ServeObservation& o) override {
    lines.push_back("serve " + std::to_string(o.request_index) + " " + std::to_string(o.object) +
                    " " + std::to_string(o.at.seconds()) + " " +
                    std::to_string(static_cast<int>(o.result.kind)) + " " +
                    std::to_string(o.result.stale) + " " + std::to_string(o.result.link_bytes) +
                    " " + std::to_string(o.has_entry) + " " + std::to_string(o.entry.version) +
                    " " + std::to_string(o.entry.expires_at.seconds()));
  }

  std::vector<std::string> lines;
};

// Three objects with co-timed modification bursts (all rewritten at the same
// instant, twice), plus a straggler. Exercises the one-RunUntil-per-burst
// batching in the faulted merge-walk: every burst member must land before
// the next request regardless of how the engine groups them.
Workload BurstWorkload() {
  Workload load;
  load.name = "burst";
  for (int i = 0; i < 3; ++i) {
    load.objects.push_back(
        ObjectSpec{"/b" + std::to_string(i) + ".html", FileType::kHtml, 4000, Days(10)});
  }
  load.horizon = SimTime::Epoch() + Days(2);
  for (uint32_t obj = 0; obj < 3; ++obj) {
    load.modifications.push_back(ModificationEvent{At(10), obj, -1});
  }
  load.modifications.push_back(ModificationEvent{At(16), 0, 2000});
  load.modifications.push_back(ModificationEvent{At(16), 1, -1});
  load.modifications.push_back(ModificationEvent{At(30), 2, -1});  // trailing burst of one
  for (int64_t h : {1, 2, 12, 20}) {
    for (uint32_t obj = 0; obj < 3; ++obj) {
      load.requests.push_back(RequestEvent{At(h), obj, 0, false});
    }
  }
  load.Finalize();
  return load;
}

// Co-timed bursts must be invisible to the statistics: the armed (event
// queue, batched RunUntil) and plain (merge-walk) paths agree field-exactly
// on a workload built from same-timestamp modification groups.
TEST(FaultNoOpPropertyTest, CoTimedModificationBurstsBatchIdentically) {
  const Workload load = BurstWorkload();
  const std::vector<PolicyConfig> policies = {
      PolicyConfig::Ttl(Hours(5)), PolicyConfig::Alex(0.1), PolicyConfig::Invalidation()};
  for (const PolicyConfig& policy : policies) {
    SimulationConfig plain = SimulationConfig::Optimized(policy);
    SimulationConfig armed = plain;
    armed.faults.armed = true;
    const SimulationResult want = RunSimulation(load, plain);
    const SimulationResult got = RunSimulation(load, armed);
    SCOPED_TRACE(policy.Describe());
    ExpectIdenticalResults(want, got);
  }
}

// The headline no-op property: arming the fault machinery with every knob at
// zero must be invisible — the event-queue replay produces the exact same
// statistics as the plain merge-walk, for every policy and retrieval mode.
TEST(FaultNoOpPropertyTest, ArmedZeroFaultsMatchFaultFreePathExactly) {
  const Workload campus = GenerateCampusWorkload(CampusServerProfile::Fas()).workload;
  const Workload micro = MicroWorkload();
  const std::vector<PolicyConfig> policies = {
      PolicyConfig::Ttl(Hours(5)), PolicyConfig::Alex(0.1), PolicyConfig::Invalidation()};
  for (const Workload* load : {&micro, &campus}) {
    for (const PolicyConfig& policy : policies) {
      for (const bool base : {false, true}) {
        SimulationConfig plain =
            base ? SimulationConfig::Base(policy) : SimulationConfig::Optimized(policy);
        SimulationConfig armed = plain;
        armed.faults.armed = true;  // every knob still zero
        ASSERT_FALSE(plain.faults.Enabled());
        ASSERT_TRUE(armed.faults.Enabled());
        const SimulationResult want = RunSimulation(*load, plain);
        const SimulationResult got = RunSimulation(*load, armed);
        SCOPED_TRACE(load->name + " / " + policy.Describe() + (base ? " / base" : " / optimized"));
        ExpectIdenticalResults(want, got);
      }
    }
  }

  // Configs off the paper's defaults, each of which the clean path must walk
  // in time order (simulation.h's Separable): a cache bound to a tenth of
  // the working set and not preloaded (tens of thousands of evictions), a
  // seven-day warm-up, an observer whose streams must match too, the
  // adaptive tuner (per-type state), and a snapshot crash a third of the way
  // through the requests.
  const int64_t tenth = campus.TotalObjectBytes() / 10;
  const auto third = static_cast<int64_t>(campus.requests.size() / 3);
  for (const PolicyConfig& policy : policies) {
    for (const std::string row :
         {"capacity", "warmup", "observer", "adaptive", "snapshot_crash_request"}) {
      SimulationConfig plain = SimulationConfig::Optimized(policy);
      ServeRecorder plain_log;
      ServeRecorder armed_log;
      if (row == "capacity") {
        plain.cache_capacity_bytes = tenth;
        plain.preload = false;
      } else if (row == "warmup") {
        plain.warmup = Days(7);
      } else if (row == "observer") {
        plain.observer = &plain_log;
      } else if (row == "adaptive") {
        if (&policy != &policies.front()) {
          continue;  // the row replaces the policy, so one pass covers it
        }
        plain.policy = PolicyConfig::Adaptive();
      } else {
        plain.faults.snapshot_crash_request = third;
      }
      ASSERT_FALSE(Separable(plain)) << row;
      SimulationConfig armed = plain;
      armed.faults.armed = true;
      if (plain.observer != nullptr) {
        armed.observer = &armed_log;
      }
      const SimulationResult want = RunSimulation(campus, plain);
      const SimulationResult got = RunSimulation(campus, armed);
      SCOPED_TRACE(row + " / " + plain.policy.Describe());
      ExpectIdenticalResults(want, got);
      EXPECT_EQ(plain_log.lines, armed_log.lines);
      if (row == "capacity") {
        EXPECT_GT(want.cache.evictions, 10000u);
      }
      if (row == "observer") {
        EXPECT_EQ(plain_log.lines.size(), campus.requests.size() + campus.modifications.size());
      }
      if (row == "snapshot_crash_request") {
        EXPECT_EQ(want.cache.crashes, 1u);
      }
    }
  }
}

TEST(FaultSimulationTest, FixedSeedRunsAreBitReproducible) {
  const Workload load = GenerateCampusWorkload(CampusServerProfile::Fas()).workload;
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  config.faults.loss_rate = 0.3;
  config.faults.seed = 42;
  config.faults.server_downtime.push_back({At(24), At(30)});
  config.faults.cache_crashes.push_back({At(48), Hours(1)});
  const SimulationResult first = RunSimulation(load, config);
  const SimulationResult second = RunSimulation(load, config);
  ExpectIdenticalResults(first, second);
  EXPECT_GT(first.metrics.upstream_retries, 0u);  // the faults actually fired
}

TEST(FaultSimulationTest, LossCausesRetriesAndRetryWait) {
  const Workload load = GenerateCampusWorkload(CampusServerProfile::Fas()).workload;
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(10)));
  config.faults.loss_rate = 0.3;
  const SimulationResult result = RunSimulation(load, config);
  EXPECT_GT(result.metrics.upstream_retries, 0u);
  EXPECT_GT(result.metrics.retry_wait_seconds, 0);
  // Retransmitted control messages cost real wire bytes: the faulted run
  // must be strictly more expensive than the clean one.
  SimulationConfig clean = config;
  clean.faults = FaultConfig{};
  EXPECT_GT(result.cache.bytes_to_upstream, RunSimulation(load, clean).cache.bytes_to_upstream);
}

TEST(FaultSimulationTest, TotalLossDegradesToLocalServes) {
  // Every exchange fails: the h12 and h20 TTL refreshes cannot reach the
  // origin, so the cache serves its (by then stale) local copy and flags it.
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(5)));
  config.faults.loss_rate = 1.0;
  const SimulationResult result = RunSimulation(MicroWorkload(), config);
  EXPECT_EQ(result.metrics.degraded_serves, 2u);
  EXPECT_GE(result.metrics.stale_hits, 1u);  // the h12 serve is oracle-stale
  EXPECT_EQ(result.metrics.cache_misses, 0u);
  EXPECT_EQ(result.server.get_requests, 0u);
}

TEST(FaultSimulationTest, DowntimeQueuesInvalidationsAndRedelivers) {
  // Origin down for [h9, h11): the h10 invalidation cannot be sent, is
  // parked, and the redelivery timer flushes it once the origin is back —
  // before the h12 request, which therefore re-fetches instead of serving
  // stale.
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  config.faults.server_downtime.push_back({At(9), At(11)});
  const SimulationResult result = RunSimulation(MicroWorkload(), config);
  EXPECT_GE(result.metrics.invalidations_queued, 1u);
  EXPECT_GE(result.metrics.invalidations_redelivered, 1u);
  EXPECT_EQ(result.metrics.stale_hits, 0u);
  EXPECT_EQ(result.metrics.cache_misses, 1u);  // the h12 refetch
}

TEST(FaultSimulationTest, LostInvalidationCausesBoundedStaleWindow) {
  // The notice itself is lost in transit (counted), parked, and redriven by
  // the retry timer 5 minutes later — the cache is stale only inside that
  // window, and the h12 request already sees the redelivered notice.
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  config.faults.loss_rate = 1.0;
  config.faults.retry.max_attempts = 1;  // keep fetch accounting simple
  // Only the h10 invalidation talks upstream in this schedule before h12;
  // all requests before the change are free local hits.
  const SimulationResult result = RunSimulation(MicroWorkload({1, 2}), config);
  EXPECT_GE(result.metrics.invalidations_lost, 1u);
  EXPECT_GE(result.metrics.invalidations_queued, 1u);
  EXPECT_EQ(result.metrics.stale_hits, 0u);  // no request fell in the window
}

TEST(FaultSimulationTest, CrashDuringOutageFailsRequestsAndCounts) {
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(48)));
  config.faults.cache_crashes.push_back({At(5), Hours(1)});
  // Request in the middle of the outage (hour 5.5 = minute 330).
  Workload load = MicroWorkload({1, 12, 20});
  load.requests.push_back(RequestEvent{SimTime::Epoch() + Minutes(330), 0, 0, false});
  load.Finalize();
  const SimulationResult result = RunSimulation(load, config);
  EXPECT_EQ(result.metrics.cache_crashes, 1u);
  EXPECT_EQ(result.metrics.failed_requests, 1u);
  EXPECT_EQ(result.metrics.unavailable_seconds, Hours(1).seconds());
}

TEST(FaultSimulationTest, TrustSnapshotRecoveryServesWithoutTraffic) {
  // TTL 48h: the snapshot restored at h6 still covers the h12 request, so a
  // trusted recovery serves it locally (stale: the h10 change is invisible).
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(48)));
  config.faults.cache_crashes.push_back({At(5), Hours(1)});
  config.faults.crash_recovery = CrashRecovery::kTrustSnapshot;
  const SimulationResult result = RunSimulation(MicroWorkload(), config);
  EXPECT_EQ(result.metrics.cache_misses, 0u);
  EXPECT_GE(result.metrics.stale_hits, 1u);
  EXPECT_EQ(result.server.get_requests, 0u);
}

TEST(FaultSimulationTest, RevalidateAllRecoveryIssuesConditionalGets) {
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(48)));
  config.faults.cache_crashes.push_back({At(5), Hours(1)});
  config.faults.crash_recovery = CrashRecovery::kRevalidateAll;
  const SimulationResult result = RunSimulation(MicroWorkload(), config);
  // h12: revalidation catches the h10 change (full body over IMS).
  EXPECT_EQ(result.metrics.validations, 1u);
  EXPECT_EQ(result.metrics.cache_misses, 1u);
  EXPECT_EQ(result.metrics.stale_hits, 0u);
}

TEST(FaultSimulationTest, ColdStartRecoveryRefetchesEverything) {
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(48)));
  config.faults.cache_crashes.push_back({At(5), Hours(1)});
  config.faults.crash_recovery = CrashRecovery::kColdStart;
  const SimulationResult result = RunSimulation(MicroWorkload(), config);
  EXPECT_GE(result.cache.misses_cold, 1u);  // h12 starts from an empty cache
  EXPECT_EQ(result.metrics.stale_hits, 0u);
}

TEST(FaultSimulationTest, AutoRecoveryIsConservativeForInvalidation) {
  // §6: after a crash an invalidation cache cannot know which notices it
  // missed while dark (here: the h5.5 change), so kAuto revalidates all.
  SimulationConfig config = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  config.faults.cache_crashes.push_back({At(5), Hours(1)});
  Workload load = MicroWorkload();
  load.modifications.push_back(ModificationEvent{SimTime::Epoch() + Minutes(330), 0, -1});
  load.Finalize();
  const SimulationResult result = RunSimulation(load, config);
  EXPECT_EQ(result.metrics.stale_hits, 0u);
  // The undeliverable mid-outage notice was parked and redriven at restart.
  EXPECT_GE(result.metrics.invalidations_queued, 1u);
  EXPECT_GE(result.metrics.invalidations_redelivered, 1u);
}

TEST(FaultSimulationTest, LeaseTurnsSilentStalenessIntoDegradedServes) {
  // Origin dark for [h9, h13): the h10 notice is undeliverable and the h12
  // request falls inside the partition. Plain invalidation trusts its copy
  // and serves silently stale; a 1-hour lease has expired by h12, so the
  // cache tries to revalidate, fails, and at least flags the serve.
  Workload load = MicroWorkload();
  SimulationConfig silent = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  silent.faults.server_downtime.push_back({At(9), At(13)});
  const SimulationResult trusting = RunSimulation(load, silent);
  EXPECT_GE(trusting.metrics.stale_hits, 1u);
  EXPECT_EQ(trusting.metrics.degraded_serves, 0u);  // silent: nobody noticed

  SimulationConfig leased = silent;
  leased.policy = PolicyConfig::Invalidation(Hours(1));
  const SimulationResult hedged = RunSimulation(load, leased);
  EXPECT_GE(hedged.metrics.degraded_serves, 1u);  // detected, not silent
}

}  // namespace
}  // namespace webcc
