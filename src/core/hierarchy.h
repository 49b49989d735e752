// Hierarchical caching — the Figure 1 ablation.
//
// The paper flattens Worrell's cache hierarchy and argues (Figure 1) that
// doing so can only bias results AGAINST the time-based protocols. This
// module makes that argument measurable:
//
//   * RunFigure1Scenarios() reproduces the figure's four micro-scenarios
//     (a)–(d) in both a two-level hierarchy (server → cache-2 → cache-1a /
//     cache-1b) and the collapsed topology, counting bytes per protocol.
//   * RunHierarchySimulation() replays a full workload through the
//     two-level tree (clients split across the leaves), so the collapse
//     bias can be quantified on the paper's trace workloads too.
//
// Faults: each of the tree's three edges is an independently faultable
// link, addressed by HierarchyLink in FaultConfig::link_overrides. The
// server→L2 edge reuses the origin's fault machinery (loss, downtime,
// queued redelivery); the L2→leaf edges run through FaultedLink decorators
// and cache-2's own queue-and-redeliver, so a notice lost on the L2 link
// never reaches either leaf — the lost-at-the-trunk-darkens-the-leaves
// topology effect a collapsed simulation cannot show. Base (non-override)
// knobs apply to every link: a base downtime window is the origin itself
// going dark, a base crash schedule crashes every cache in the tree. The
// tree is one replay-kernel world (src/core/replay.h) of three caches; with
// faults disabled it has no engine, and the leaves fetch from cache-2
// directly.

#ifndef WEBCC_SRC_CORE_HIERARCHY_H_
#define WEBCC_SRC_CORE_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/metrics.h"
#include "src/core/simulation.h"
#include "src/sim/fault_plan.h"
#include "src/workload/workload.h"

namespace webcc {

// The tree's three faultable edges, in link-override index order. The cache
// endpoint of each link is the one that crashes when the link's override
// schedules a CacheCrashEvent.
enum class HierarchyLink : uint32_t {
  kServerL2 = 0,  // origin <-> cache-2
  kL2L1a = 1,     // cache-2 <-> cache-1a
  kL2L1b = 2,     // cache-2 <-> cache-1b
};
inline constexpr uint32_t kNumHierarchyLinks = 3;

struct HierarchyConfig {
  PolicyConfig policy;
  RefreshMode refresh_mode = RefreshMode::kConditionalGet;
  bool preload = true;
  // Per-link fault schedules; link overrides are indexed by HierarchyLink.
  // FaultConfig::snapshot_crash_request (base or per-leaf-link override)
  // cycles the LEAF before serving its own i-th request — leaves are where
  // client-visible serves happen; crash cache-2 via scheduled crashes on
  // link 0 instead.
  FaultConfig faults;
  // Chaos-harness hooks observing the leaves' serves (request_index is each
  // leaf's own replay index). Both may be null; must outlive the run.
  SimObserver* leaf_observer_a = nullptr;
  SimObserver* leaf_observer_b = nullptr;
};

struct HierarchyResult {
  std::string policy_desc;
  ServerStats server;
  CacheStats l2;
  CacheStats l1a;
  CacheStats l1b;
  uint64_t requests = 0;
  uint64_t modifications = 0;  // fan-out denominator

  // Cache-2's parent-side delivery ledger for the two leaf links (all zero
  // for policies that never forward invalidations).
  uint64_t child_invalidations_sent = 0;
  uint64_t child_invalidations_delivered = 0;
  uint64_t child_invalidations_dropped = 0;
  uint64_t child_invalidations_queued = 0;
  uint64_t child_invalidations_redelivered = 0;
  // Gauge at end of run: notices still parked for unreachable leaves.
  size_t pending_child_invalidations = 0;

  // Network cost: every link's traffic counts (leaf links + the L2 link).
  int64_t TotalLinkBytes() const {
    return l1a.LinkBytes() + l1b.LinkBytes() + l2.LinkBytes();
  }
  // Client-visible staleness happens at the leaves.
  uint64_t LeafStaleHits() const { return l1a.stale_hits + l1b.stale_hits; }
  uint64_t LeafMisses() const { return l1a.Misses() + l1b.Misses(); }
  uint64_t LeafRequests() const { return l1a.requests + l1b.requests; }
  // The worse of the two leaves' client-visible staleness — the per-tier
  // spread a tree-wide average hides.
  double WorstLeafStaleRate() const;
  // Tiers that went dark at least once (crash or failed serves).
  uint32_t DarkTiers() const;
  // Invalidation notices per modification across the whole tree (origin
  // sends plus cache-2's downstream forwards; retries push it higher).
  double FanOutAmplification() const;
};

// Replays `load` through the two-level tree; requests with even client_id go
// to cache-1a, odd to cache-1b.
HierarchyResult RunHierarchySimulation(const Workload& load, const HierarchyConfig& config);

// One Figure 1 scenario, measured in both topologies for both protocol
// families. Bytes are total link bytes caused by the scenario's events.
struct ScenarioOutcome {
  std::string scenario;     // "a".."d"
  std::string description;
  int64_t hier_invalidation_bytes = 0;
  int64_t hier_timebased_bytes = 0;
  int64_t collapsed_invalidation_bytes = 0;
  int64_t collapsed_timebased_bytes = 0;

  // The figure's claim: collapsing never makes time-based protocols look
  // better relative to invalidation than the hierarchy would.
  double HierRatio() const;
  double CollapsedRatio() const;
};

std::vector<ScenarioOutcome> RunFigure1Scenarios();

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_HIERARCHY_H_
