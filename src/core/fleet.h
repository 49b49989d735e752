// Cache fleets: one origin serving MANY independent proxies.
//
// §1's complaint about invalidation protocols: "Servers must keep track of
// where their objects are currently cached, introducing scalability
// problems or necessitating hierarchical caching." This simulator splits a
// workload's clients across N sibling caches and measures how the server's
// costs scale with N: invalidation bookkeeping (live subscriptions),
// notice fan-out (every change notifies every holder), and operation counts
// — against the time-based protocols whose server cost is driven by
// requests, not by the holder population.
//
// Sharded execution: fleet members never talk to each other — member i
// serves exactly the requests with client_id % N == i and sees every
// modification — so each member is replayed as its own (origin, cache)
// world and the per-member statistics are summed in member order. That
// makes the members embarrassingly parallel: pass a SweepRunner and they
// shard across its thread pool, field-identical to the serial walk at any
// --jobs count (tests/core/fleet_test.cc). The summed server columns mean
// "total origin-side work the fleet generated", exactly what the shared
// walk measured.
//
// peak_subscriptions is the true fleet-wide CONCURRENT peak: each member
// records its subscription count as a step function of simulated time and
// the merge takes the maximum of the summed levels over all event
// boundaries (simultaneous changes apply atomically per timestamp). On
// monotone-growth runs — every fault-free, capacity-free fleet — this
// equals the old summed-member-peaks number exactly; under crash/restart
// or eviction churn, where per-member counts shrink and regrow, the
// concurrent peak is the honest, possibly smaller figure the old sum
// silently over-reported.
//
// Each member world is RunMemberSimulation's: the replay kernel
// (src/core/replay.h) routes only the member's requests to its one cache.
// Faults: FleetConfig::faults generalizes the single-cache fault layer to
// per-link schedules. Each (origin, member) link derives its own config via
// FaultConfig::ForLink(member) — independently seeded substreams, plus any
// member-targeted LinkFaultOverride knobs — and a member world with faults
// enabled rides an engine (scheduled loss, downtime, crash/restart through
// the snapshot machinery, invalidation redelivery); with faults disabled it
// has none. FaultConfig::snapshot_crash_request indexes the member's OWN
// replay slice (its i-th served request), matching the observer's
// request_index stream for that member.

#ifndef WEBCC_SRC_CORE_FLEET_H_
#define WEBCC_SRC_CORE_FLEET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/metrics.h"
#include "src/core/simulation.h"
#include "src/workload/workload.h"

namespace webcc {

struct FleetConfig {
  PolicyConfig policy;
  uint32_t num_caches = 10;
  RefreshMode refresh_mode = RefreshMode::kConditionalGet;
  bool preload = true;
  // Per-link fault schedules (src/sim/fault_plan.h). Enabled() gives every
  // member world an engine and its link's fault plan; link overrides
  // address members by index.
  FaultConfig faults;
  // Chaos-harness hook: returns the observer for member i's world (null for
  // none). Member worlds run concurrently under a SweepRunner, so distinct
  // members must get distinct observer instances. Must outlive the run.
  std::function<SimObserver*(uint32_t member)> member_observer;
  // Keep each member's full SimulationResult in FleetResult::member_results
  // (the chaos oracle verifies members individually). Off by default: the
  // aggregate columns are all the figures need.
  bool keep_member_results = false;
};

// Per-member failure spread: how unevenly the fleet degraded. All zero on a
// clean network.
struct FleetMemberSummary {
  uint32_t member = 0;
  uint64_t requests = 0;
  uint64_t stale_hits = 0;
  uint64_t degraded_serves = 0;
  uint64_t failed_requests = 0;
  uint64_t crashes = 0;
  int64_t unavailable_seconds = 0;  // crash-to-restart dark time

  double StaleRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stale_hits) / static_cast<double>(requests);
  }
};

struct FleetResult {
  std::string policy_desc;
  uint32_t num_caches = 0;
  ServerStats server;
  // Aggregates across all member caches.
  uint64_t requests = 0;
  uint64_t stale_hits = 0;
  uint64_t misses = 0;
  int64_t total_link_bytes = 0;
  uint64_t modifications = 0;  // workload changes (fan-out denominator)
  // Server-side bookkeeping: live (cache, object) subscriptions at the end
  // of the run, and the true fleet-wide concurrent peak (see file comment).
  size_t final_subscriptions = 0;
  size_t peak_subscriptions = 0;
  // Failure spread, one entry per member in member order.
  std::vector<FleetMemberSummary> members;
  // Full per-member results when FleetConfig::keep_member_results is set.
  std::vector<SimulationResult> member_results;

  double StaleRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stale_hits) / static_cast<double>(requests);
  }
  // The worst single member's client-visible staleness — the §1 weakness is
  // per-holder, and the fleet average hides a dark member.
  double WorstMemberStaleRate() const;
  // Members that went entirely dark at least once (crash or failed serves).
  uint32_t DarkMembers() const;
  // Invalidation notices per modification: how the holder population
  // amplifies every change (≈ N for a preloaded fleet, §1's complaint;
  // retries push it higher under faults).
  double FanOutAmplification() const;
};

class SweepRunner;

// Replays `load` with requests routed to cache (client_id % num_caches),
// one member world at a time.
FleetResult RunFleetSimulation(const Workload& load, const FleetConfig& config);

// Same result, with member worlds sharded across `runner`'s thread pool.
FleetResult RunFleetSimulation(const Workload& load, const FleetConfig& config,
                               SweepRunner& runner);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_FLEET_H_
