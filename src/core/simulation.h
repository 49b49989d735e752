// The collapsed-hierarchy simulators (paper §3).
//
// One origin server, one proxy cache, a scripted Workload. The three
// simulator generations differ only in configuration:
//
//   BaseSimulatorConfig():      preload + full re-fetch on expiry
//   OptimizedSimulatorConfig(): preload + conditional GET on expiry
//   TraceDriven():              preload + conditional GET (trace runs
//                               replay only files present at the start of
//                               the month, paper §4.2, so the cache starts
//                               warm and the metrics isolate consistency
//                               traffic)
//
// Each run builds one origin-and-cache world and replays the workload
// through it with the replay kernel (src/core/replay.h): a modification at
// time t is visible to a request at time t. A separable config (below) is
// walked object by object, any other in time order; both give equal results.

#ifndef WEBCC_SRC_CORE_SIMULATION_H_
#define WEBCC_SRC_CORE_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/metrics.h"
#include "src/core/replay.h"
#include "src/sim/fault_plan.h"
#include "src/workload/workload.h"

namespace webcc {

struct SimulationConfig {
  PolicyConfig policy;
  RefreshMode refresh_mode = RefreshMode::kConditionalGet;
  bool preload = true;
  int64_t cache_capacity_bytes = 0;  // 0 = unbounded (the paper's setting)
  // Measurement warm-up: events before epoch+warmup still execute (the
  // cache fills, windows arm), but all statistics are reset at the first
  // request at or after it — the standard way to exclude cold-start
  // transients without preloading.
  SimDuration warmup = SimDuration(0);
  // Fault injection (src/sim/fault_plan.h). When faults.Enabled() is false
  // the world has no engine and the kernel's walk does no engine work; when
  // enabled, the run rides a SimEngine so loss, downtime, crash/restart, and
  // invalidation redelivery are scheduled deterministically from the seed.
  FaultConfig faults;

  // Chaos-harness hooks — both inert by default.
  //
  // Non-owning observation hook; must outlive the run. Null = no reporting.
  SimObserver* observer = nullptr;
  // Test seam: when set, the cache's policy comes from this factory instead
  // of MakePolicy(policy), while `policy` still declares the parameters an
  // oracle checks against — how tests/chaos/ plants a deliberately broken
  // policy behind an honest-looking config.
  std::function<std::unique_ptr<ConsistencyPolicy>()> policy_factory;

  static SimulationConfig Base(PolicyConfig policy);
  static SimulationConfig Optimized(PolicyConfig policy);
  static SimulationConfig TraceDriven(PolicyConfig policy);
};

struct SimulationResult {
  std::string workload_name;
  std::string policy_desc;
  ServerStats server;
  CacheStats cache;
  ConsistencyMetrics metrics;
};

// Whether `config`'s world is separable, so the kernel may walk it object by
// object. A positive list: faults disabled (no engine), no observer, no
// warm-up, no snapshot-crash point, an unbounded cache, no policy_factory,
// and a TTL, Alex, CERN or invalidation policy (with or without a lease);
// the adaptive tuner's per-type state spans objects. A new feature is
// non-separable until it is added here.
bool Separable(const SimulationConfig& config);

// Replays `load` under `config`. Checks `load` first, and indexes it by
// object when `config` is separable. Deterministic: equal inputs, equal
// outputs.
SimulationResult RunSimulation(const Workload& load, const SimulationConfig& config);

// RunSimulation for a caller that replays one workload under many configs
// and has already checked it (SweepRunner's grids). A separable config walks
// `index`, which must be `load`'s, or an index of its own when `index` is
// null; any other config ignores it.
SimulationResult RunCheckedSimulation(const Workload& load, const ObjectIndex* index,
                                      const SimulationConfig& config);

// One fleet member's world (src/core/fleet.h): RunSimulation serving only
// the requests with client_id % members == member. The observer's request
// indices, the snapshot-crash point and the horizon count only those
// requests. Does not validate `load`; the fleet validates it once.
SimulationResult RunMemberSimulation(const Workload& load, const SimulationConfig& config,
                                     uint32_t members, uint32_t member);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_SIMULATION_H_
