#include "src/core/hierarchy.h"

#include <algorithm>
#include <optional>

#include "src/cache/faulted_link.h"
#include "src/cache/origin_upstream.h"
#include "src/core/replay.h"
#include "src/core/simulation.h"
#include "src/origin/server.h"
#include "src/sim/engine.h"
#include "src/util/check.h"

namespace webcc {

double HierarchyResult::WorstLeafStaleRate() const {
  return std::max(l1a.StaleRate(), l1b.StaleRate());
}

uint32_t HierarchyResult::DarkTiers() const {
  uint32_t dark = 0;
  for (const CacheStats* tier : {&l2, &l1a, &l1b}) {
    if (tier->crashes > 0 || tier->failed_requests > 0) {
      ++dark;
    }
  }
  return dark;
}

double HierarchyResult::FanOutAmplification() const {
  return modifications == 0
             ? 0.0
             : static_cast<double>(server.invalidations_sent + child_invalidations_sent) /
                   static_cast<double>(modifications);
}

HierarchyResult RunHierarchySimulation(const Workload& load, const HierarchyConfig& config) {
  WEBCC_CHECK(load.Validate().empty());
  ReplayWorld world;
  world.route = {1, 2};  // even client_id to cache-1a, odd to cache-1b
  world.requests = load.requests;
  world.modifications = load.modifications;

  // Each edge's link config; with faults enabled, its plan too, and an
  // engine the whole tree rides.
  const FaultConfig links[kNumHierarchyLinks] = {
      config.faults.ForLink(0), config.faults.ForLink(1), config.faults.ForLink(2)};
  std::optional<SimEngine> engine;
  std::optional<FleetFaultPlan> plans;
  if (config.faults.Enabled()) {
    world.engine = &engine.emplace();
    plans.emplace(config.faults, kNumHierarchyLinks, ReplayHorizon(world));
  }
  const auto plan = [&plans](HierarchyLink link) -> FaultPlan* {
    return plans ? &plans->link(static_cast<uint32_t>(link)) : nullptr;
  };

  OriginServer server(world.engine, config.faults.invalidation_retry_interval);
  server.ArmFaults(plan(HierarchyLink::kServerL2));
  CreateWorkloadObjects(load, server);
  OriginUpstream origin(&server);
  origin.ArmFaults(plan(HierarchyLink::kServerL2));
  CacheConfig cache_config;
  cache_config.refresh_mode = config.refresh_mode;
  ProxyCache l2("cache-2", &origin, MakePolicy(config.policy), cache_config, &server.store());

  // A faulted tree reaches cache-2 through a FaultedLink per leaf edge, and
  // cache-2 queues and redelivers the notices those links lose; a clean
  // tree's leaves fetch from cache-2 directly.
  std::optional<FaultedLink> link_a;
  std::optional<FaultedLink> link_b;
  if (world.engine != nullptr) {
    l2.ArmChildRedelivery(world.engine, config.faults.invalidation_retry_interval);
    link_a.emplace(&l2, plan(HierarchyLink::kL2L1a), world.engine);
    link_b.emplace(&l2, plan(HierarchyLink::kL2L1b), world.engine);
  }
  ProxyCache l1a("cache-1a", link_a ? static_cast<Upstream*>(&*link_a) : &l2,
                 MakePolicy(config.policy), cache_config, &server.store());
  ProxyCache l1b("cache-1b", link_b ? static_cast<Upstream*>(&*link_b) : &l2,
                 MakePolicy(config.policy), cache_config, &server.store());
  if (link_a) {
    link_a->SetChild(&l1a);
    link_b->SetChild(&l1b);
  }

  if (config.preload) {
    l2.Preload(server.store(), SimTime::Epoch());
    l1a.Preload(server.store(), SimTime::Epoch());
    l1b.Preload(server.store(), SimTime::Epoch());
  }

  world.server = &server;
  world.caches = {
      {.cache = &l2, .faults = &links[0], .plan = plan(HierarchyLink::kServerL2)},
      {.cache = &l1a,
       .faults = &links[1],
       .plan = plan(HierarchyLink::kL2L1a),
       .parent = &l2,
       .parent_link = link_a ? static_cast<InvalidationSink*>(&*link_a) : &l1a,
       .observer = config.leaf_observer_a},
      {.cache = &l1b,
       .faults = &links[2],
       .plan = plan(HierarchyLink::kL2L1b),
       .parent = &l2,
       .parent_link = link_b ? static_cast<InvalidationSink*>(&*link_b) : &l1b,
       .observer = config.leaf_observer_b},
  };
  Replay(world);

  HierarchyResult result;
  result.policy_desc = l2.policy().Describe();
  result.server = server.stats();
  result.l2 = l2.stats();
  result.l1a = l1a.stats();
  result.l1b = l1b.stats();
  result.requests = load.requests.size();
  result.modifications = load.modifications.size();
  result.child_invalidations_sent = l2.child_invalidations_sent();
  result.child_invalidations_delivered = l2.child_invalidations_delivered();
  result.child_invalidations_dropped = l2.child_invalidations_dropped();
  result.child_invalidations_queued = l2.child_invalidations_queued();
  result.child_invalidations_redelivered = l2.child_invalidations_redelivered();
  result.pending_child_invalidations = l2.PendingChildInvalidations();
  return result;
}

namespace {

// A one-object workload for the Figure 1 micro-scenarios.
Workload ScenarioWorkload(bool change_at_10min, std::vector<SimDuration> access_times) {
  Workload load;
  load.name = "fig1-scenario";
  ObjectSpec spec;
  spec.name = "/fig1/object.html";
  spec.type = FileType::kHtml;
  spec.size_bytes = 6000;
  spec.initial_age = Days(10);  // a settled object
  load.objects.push_back(spec);
  if (change_at_10min) {
    load.modifications.push_back(ModificationEvent{SimTime::Epoch() + Minutes(10), 0, -1});
  }
  for (SimDuration at : access_times) {
    RequestEvent req;
    req.at = SimTime::Epoch() + at;
    req.object_index = 0;
    req.client_id = 0;  // all scenario traffic enters via cache-1a
    load.requests.push_back(req);
  }
  load.horizon = SimTime::Epoch() + Days(2);
  load.Finalize();
  return load;
}

int64_t HierBytes(const Workload& load, PolicyConfig policy) {
  HierarchyConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kConditionalGet;
  config.preload = true;
  return RunHierarchySimulation(load, config).TotalLinkBytes();
}

int64_t CollapsedBytes(const Workload& load, PolicyConfig policy) {
  SimulationConfig config = SimulationConfig::Optimized(policy);
  return RunSimulation(load, config).metrics.total_bytes;
}

ScenarioOutcome MeasureScenario(std::string tag, std::string description, const Workload& load,
                                PolicyConfig timebased) {
  ScenarioOutcome outcome;
  outcome.scenario = std::move(tag);
  outcome.description = std::move(description);
  outcome.hier_invalidation_bytes = HierBytes(load, PolicyConfig::Invalidation());
  outcome.hier_timebased_bytes = HierBytes(load, timebased);
  outcome.collapsed_invalidation_bytes = CollapsedBytes(load, PolicyConfig::Invalidation());
  outcome.collapsed_timebased_bytes = CollapsedBytes(load, timebased);
  return outcome;
}

}  // namespace

double ScenarioOutcome::HierRatio() const {
  return hier_invalidation_bytes == 0
             ? 0.0
             : static_cast<double>(hier_timebased_bytes) /
                   static_cast<double>(hier_invalidation_bytes);
}

double ScenarioOutcome::CollapsedRatio() const {
  return collapsed_invalidation_bytes == 0
             ? 0.0
             : static_cast<double>(collapsed_timebased_bytes) /
                   static_cast<double>(collapsed_invalidation_bytes);
}

std::vector<ScenarioOutcome> RunFigure1Scenarios() {
  std::vector<ScenarioOutcome> outcomes;

  // (a) Data changed, never accessed again. Long TTL: the time-based cache
  // stays silent; invalidation pays notices on every link.
  outcomes.push_back(MeasureScenario(
      "a", "data changed, never accessed again",
      ScenarioWorkload(/*change_at_10min=*/true, {}), PolicyConfig::Ttl(Hours(1000))));

  // (b) Data changed, accessed again before timing out. The time-based cache
  // serves the (stale) copy locally for free; invalidation pays notices plus
  // the re-fetch.
  outcomes.push_back(MeasureScenario(
      "b", "data changed, accessed again before timing out",
      ScenarioWorkload(true, {Minutes(30)}), PolicyConfig::Ttl(Hours(1000))));

  // (c) Data changed, accessed after timing out. Both protocols move the
  // file; in the hierarchy, invalidation also notified cache-1b, which never
  // asks for the data.
  outcomes.push_back(MeasureScenario(
      "c", "data changed, accessed after timing out",
      ScenarioWorkload(true, {Hours(3)}), PolicyConfig::Ttl(Hours(1))));

  // (d) Data did not change, timed out and later accessed. Time-based pays
  // validation queries; invalidation pays nothing.
  outcomes.push_back(MeasureScenario(
      "d", "data did not change, timed out and later accessed",
      ScenarioWorkload(false, {Hours(3)}), PolicyConfig::Ttl(Hours(1))));

  return outcomes;
}

}  // namespace webcc
