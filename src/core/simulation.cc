#include "src/core/simulation.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/cache/origin_upstream.h"
#include "src/origin/server.h"
#include "src/sim/engine.h"
#include "src/util/check.h"

namespace webcc {

SimulationConfig SimulationConfig::Base(PolicyConfig policy) {
  SimulationConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kFullRefetch;
  config.preload = true;
  return config;
}

SimulationConfig SimulationConfig::Optimized(PolicyConfig policy) {
  SimulationConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kConditionalGet;
  config.preload = true;
  return config;
}

SimulationConfig SimulationConfig::TraceDriven(PolicyConfig policy) {
  SimulationConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kConditionalGet;
  // The paper's trace runs consider only files present at the start of the
  // month and measure steady-state consistency traffic, so the cache starts
  // warm; a cold start would bury the protocol differences under the
  // one-time cold-fetch payload, which is identical for every protocol.
  config.preload = true;
  return config;
}

namespace {

bool SeparablePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFixedTtl:
    case PolicyKind::kAlex:
    case PolicyKind::kCernHttpd:
    case PolicyKind::kInvalidation:
      return true;
    case PolicyKind::kAdaptiveTuner:
      return false;
  }
  return false;
}

// RunSimulation's world: one origin and one cache, serving the requests
// `route` sends to it, in object order when `by_object` is set.
SimulationResult RunOneCache(const Workload& load, const SimulationConfig& config,
                             std::vector<int32_t> route, const ObjectIndex* by_object) {
  ReplayWorld world;
  world.route = std::move(route);
  world.requests = load.requests;
  world.modifications = load.modifications;
  world.warmup = config.warmup;
  world.by_object = by_object;

  std::optional<SimEngine> engine;
  std::optional<FaultPlan> plan;
  if (config.faults.Enabled()) {
    world.engine = &engine.emplace();
    plan.emplace(config.faults, ReplayHorizon(world));
  }
  FaultPlan* faults = plan ? &*plan : nullptr;

  OriginServer server(world.engine, config.faults.invalidation_retry_interval);
  server.ArmFaults(faults);
  CreateWorkloadObjects(load, server);
  OriginUpstream upstream(&server);
  upstream.ArmFaults(faults);
  CacheConfig cache_config;
  cache_config.refresh_mode = config.refresh_mode;
  cache_config.capacity_bytes = config.cache_capacity_bytes;
  ProxyCache cache("proxy", &upstream,
                   config.policy_factory ? config.policy_factory() : MakePolicy(config.policy),
                   cache_config, &server.store());
  if (config.preload) {
    cache.Preload(server.store(), SimTime::Epoch());
  }

  world.server = &server;
  world.caches.push_back(
      {.cache = &cache, .faults = &config.faults, .plan = faults, .observer = config.observer});
  Replay(world);

  SimulationResult result;
  result.workload_name = load.name;
  result.policy_desc = cache.policy().Describe();
  result.server = server.stats();
  result.cache = cache.stats();
  result.metrics = ComputeMetrics(result.server, result.cache);
  return result;
}

}  // namespace

bool Separable(const SimulationConfig& config) {
  return SeparablePolicy(config.policy.kind) && !config.faults.Enabled() &&
         config.observer == nullptr && config.warmup.seconds() == 0 &&
         config.faults.snapshot_crash_request < 0 && config.cache_capacity_bytes == 0 &&
         !config.policy_factory;
}

SimulationResult RunSimulation(const Workload& load, const SimulationConfig& config) {
  WEBCC_CHECK(load.Validate().empty()) << "workload failed validation";
  return RunCheckedSimulation(load, nullptr, config);
}

SimulationResult RunCheckedSimulation(const Workload& load, const ObjectIndex* index,
                                      const SimulationConfig& config) {
  if (!Separable(config)) {
    return RunOneCache(load, config, {0}, nullptr);
  }
  std::optional<ObjectIndex> own;
  return RunOneCache(load, config, {0}, index != nullptr ? index : &own.emplace(load));
}

SimulationResult RunMemberSimulation(const Workload& load, const SimulationConfig& config,
                                     uint32_t members, uint32_t member) {
  WEBCC_CHECK_LT(member, members);
  std::vector<int32_t> route(members, kNoLeaf);
  route[member] = 0;
  return RunOneCache(load, config, std::move(route), nullptr);
}

}  // namespace webcc
