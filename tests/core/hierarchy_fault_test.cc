// Per-link fault plans through RunHierarchySimulation: a trunk (server->L2)
// fault stales BOTH leaves, leaf-link faults stay isolated, queued child
// invalidations redeliver when a leaf comes back, and the armed-all-zero
// no-op holds for the whole tree.

#include "src/core/hierarchy.h"

#include <string>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/workload/worrell.h"

namespace webcc {
namespace {

const Workload& TreeLoad() {
  static const Workload load = [] {
    WorrellConfig config;
    config.num_files = 60;
    config.duration = Days(10);
    config.requests_per_second = 0.05;
    config.num_clients = 64;
    config.seed = 4242;
    return GenerateWorrellWorkload(config);
  }();
  return load;
}

LinkFaultOverride LinkLoss(HierarchyLink link, double rate) {
  LinkFaultOverride over;
  over.link = static_cast<uint32_t>(link);
  over.loss_rate = rate;
  return over;
}

void ExpectTierIdentical(const CacheStats& a, const CacheStats& b, const char* tier) {
  EXPECT_EQ(a.requests, b.requests) << tier;
  EXPECT_EQ(a.stale_hits, b.stale_hits) << tier;
  EXPECT_EQ(a.hits_fresh, b.hits_fresh) << tier;
  EXPECT_EQ(a.hits_validated, b.hits_validated) << tier;
  EXPECT_EQ(a.Misses(), b.Misses()) << tier;
  EXPECT_EQ(a.invalidations_received, b.invalidations_received) << tier;
  EXPECT_EQ(a.degraded_serves, b.degraded_serves) << tier;
  EXPECT_EQ(a.failed_requests, b.failed_requests) << tier;
  EXPECT_EQ(a.crashes, b.crashes) << tier;
  EXPECT_EQ(a.LinkBytes(), b.LinkBytes()) << tier;
}

void ExpectTreesIdentical(const HierarchyResult& a, const HierarchyResult& b) {
  ExpectTierIdentical(a.l2, b.l2, "l2");
  ExpectTierIdentical(a.l1a, b.l1a, "l1a");
  ExpectTierIdentical(a.l1b, b.l1b, "l1b");
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.child_invalidations_sent, b.child_invalidations_sent);
  EXPECT_EQ(a.child_invalidations_delivered, b.child_invalidations_delivered);
  EXPECT_EQ(a.child_invalidations_dropped, b.child_invalidations_dropped);
  EXPECT_EQ(a.child_invalidations_queued, b.child_invalidations_queued);
  EXPECT_EQ(a.child_invalidations_redelivered, b.child_invalidations_redelivered);
  EXPECT_EQ(a.pending_child_invalidations, b.pending_child_invalidations);
}

TEST(HierarchyFaultTest, ArmedAllZeroFaultsAreATreeNoOp) {
  // -1 is no crash; the others cycle each leaf through a snapshot crash
  // before its own first, tenth and hundredth serve.
  for (const int64_t crash_request : {-1, 0, 9, 99}) {
    for (const PolicyConfig& policy :
         {PolicyConfig::Alex(0.2), PolicyConfig::Invalidation()}) {
      HierarchyConfig plain;
      plain.policy = policy;
      plain.faults.snapshot_crash_request = crash_request;
      HierarchyConfig armed = plain;
      armed.faults.armed = true;
      const HierarchyResult base = RunHierarchySimulation(TreeLoad(), plain);
      const HierarchyResult faulted = RunHierarchySimulation(TreeLoad(), armed);
      SCOPED_TRACE(policy.Describe() + " / crash before serve " + std::to_string(crash_request));
      ExpectTreesIdentical(base, faulted);
      const uint64_t cycles = crash_request >= 0 ? 1 : 0;
      EXPECT_EQ(base.l1a.crashes, cycles);
      EXPECT_EQ(base.l1b.crashes, cycles);
    }
  }
}

TEST(HierarchyFaultTest, TrunkLossStalesBothLeaves) {
  // Invalidations lost on the server->L2 trunk never reach the tree at
  // all: cache-2 keeps serving its stale copy and both leaves inherit the
  // staleness — the §1 weakness amplified by sharing a parent.
  HierarchyConfig config;
  config.policy = PolicyConfig::Invalidation();
  config.faults.link_overrides.push_back(LinkLoss(HierarchyLink::kServerL2, 1.0));
  const HierarchyResult result = RunHierarchySimulation(TreeLoad(), config);
  EXPECT_GT(result.l1a.stale_hits + result.l1a.degraded_serves, 0u);
  EXPECT_GT(result.l1b.stale_hits + result.l1b.degraded_serves, 0u);
  EXPECT_GT(result.WorstLeafStaleRate(), 0.0);
}

TEST(HierarchyFaultTest, LeafLinkLossIsIsolatedToThatLeaf) {
  // Only the L2->L1a edge is lossy: leaf B and the parent keep a perfect
  // network, so whatever staleness appears is A's alone.
  HierarchyConfig config;
  config.policy = PolicyConfig::Invalidation();
  config.faults.link_overrides.push_back(LinkLoss(HierarchyLink::kL2L1a, 1.0));
  const HierarchyResult result = RunHierarchySimulation(TreeLoad(), config);
  EXPECT_GT(result.l1a.stale_hits + result.l1a.degraded_serves, 0u);
  EXPECT_EQ(result.l1b.stale_hits, 0u);
  EXPECT_EQ(result.l1b.degraded_serves, 0u);
  EXPECT_EQ(result.l2.stale_hits, 0u);
  // The parent's delivery ledger records the losses on the A edge.
  EXPECT_GT(result.child_invalidations_dropped + result.child_invalidations_queued, 0u);
}

TEST(HierarchyFaultTest, LeafCrashQueuesAndRedeliversChildInvalidations) {
  // Leaf A goes dark mid-run; cache-2 queues notices for the unreachable
  // child and redelivers them after restart, so A is consistent again by
  // the end of the run instead of permanently stale.
  HierarchyConfig config;
  config.policy = PolicyConfig::Invalidation();
  LinkFaultOverride crash;
  crash.link = static_cast<uint32_t>(HierarchyLink::kL2L1a);
  crash.crashes.push_back({SimTime::Epoch() + Days(4), Hours(12)});
  config.faults.link_overrides.push_back(crash);
  const HierarchyResult result = RunHierarchySimulation(TreeLoad(), config);
  EXPECT_EQ(result.l1a.crashes, 1u);
  EXPECT_GT(result.l1a.unavailable_seconds, 0);
  EXPECT_EQ(result.l1b.crashes, 0u);
  EXPECT_EQ(result.l2.crashes, 0u);
  EXPECT_GT(result.child_invalidations_queued, 0u);
  EXPECT_GT(result.child_invalidations_redelivered, 0u);
  EXPECT_EQ(result.DarkTiers(), 1u);
}

TEST(HierarchyFaultTest, FaultedTreeIsSeedReproducible) {
  HierarchyConfig config;
  config.policy = PolicyConfig::Invalidation();
  config.faults.loss_rate = 0.2;
  config.faults.seed = 99;
  config.faults.link_overrides.push_back(LinkLoss(HierarchyLink::kL2L1b, 0.5));
  const HierarchyResult first = RunHierarchySimulation(TreeLoad(), config);
  const HierarchyResult second = RunHierarchySimulation(TreeLoad(), config);
  ExpectTreesIdentical(first, second);
}

TEST(HierarchyFaultTest, LinksDrawIndependentFaultStreams) {
  // One base loss rate, three links: the forked per-link substreams must
  // not mirror each other, so the two leaves degrade differently.
  HierarchyConfig config;
  config.policy = PolicyConfig::Invalidation();
  config.faults.loss_rate = 0.35;
  const HierarchyResult result = RunHierarchySimulation(TreeLoad(), config);
  EXPECT_NE(result.l1a.degraded_serves * 1000000 + result.l1a.stale_hits,
            result.l1b.degraded_serves * 1000000 + result.l1b.stale_hits);
}

TEST(HierarchyFaultTest, RequestSplitIsConservedUnderFaults) {
  HierarchyConfig config;
  config.policy = PolicyConfig::Invalidation();
  config.faults.loss_rate = 0.3;
  LinkFaultOverride crash;
  crash.link = static_cast<uint32_t>(HierarchyLink::kL2L1b);
  crash.crashes.push_back({SimTime::Epoch() + Days(3), Hours(6)});
  config.faults.link_overrides.push_back(crash);
  const HierarchyResult result = RunHierarchySimulation(TreeLoad(), config);
  EXPECT_EQ(result.LeafRequests(), result.requests);
  EXPECT_EQ(result.requests, TreeLoad().requests.size());
}

}  // namespace
}  // namespace webcc
