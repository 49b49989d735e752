// Field-exact SimulationResult and CacheStats comparisons shared by the
// core suites that hold two replays of one world to bit-identical output.

#ifndef WEBCC_TESTS_CORE_IDENTICAL_RESULTS_H_
#define WEBCC_TESTS_CORE_IDENTICAL_RESULTS_H_

#include <gtest/gtest.h>

#include "src/core/simulation.h"

namespace webcc {

// Field-exact comparison of one cache's accounting.
inline void ExpectIdenticalCacheStats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits_fresh, b.hits_fresh);
  EXPECT_EQ(a.hits_validated, b.hits_validated);
  EXPECT_EQ(a.misses_cold, b.misses_cold);
  EXPECT_EQ(a.misses_refetched, b.misses_refetched);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  EXPECT_EQ(a.validations_sent, b.validations_sent);
  EXPECT_EQ(a.full_fetches, b.full_fetches);
  EXPECT_EQ(a.invalidations_received, b.invalidations_received);
  EXPECT_EQ(a.invalidations_dropped, b.invalidations_dropped);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.upstream_retries, b.upstream_retries);
  EXPECT_EQ(a.retry_wait_seconds, b.retry_wait_seconds);
  EXPECT_EQ(a.degraded_serves, b.degraded_serves);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.unavailable_seconds, b.unavailable_seconds);
  EXPECT_EQ(a.bytes_to_upstream, b.bytes_to_upstream);
  EXPECT_EQ(a.bytes_from_upstream, b.bytes_from_upstream);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.max_hops, b.max_hops);
  for (size_t t = 0; t < a.by_type.size(); ++t) {
    EXPECT_EQ(a.by_type[t].requests, b.by_type[t].requests) << t;
    EXPECT_EQ(a.by_type[t].stale_hits, b.by_type[t].stale_hits) << t;
    EXPECT_EQ(a.by_type[t].misses, b.by_type[t].misses) << t;
    EXPECT_EQ(a.by_type[t].validations, b.by_type[t].validations) << t;
    EXPECT_EQ(a.by_type[t].payload_bytes, b.by_type[t].payload_bytes) << t;
  }
}

// Field-exact comparison across both endpoints' accounting and the derived
// metrics. Every counter the simulator can produce is asserted, so a fault
// path that silently perturbs ANY statistic fails loudly.
inline void ExpectIdenticalResults(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.policy_desc, b.policy_desc);

  EXPECT_EQ(a.server.get_requests, b.server.get_requests);
  EXPECT_EQ(a.server.ims_queries, b.server.ims_queries);
  EXPECT_EQ(a.server.ims_not_modified, b.server.ims_not_modified);
  EXPECT_EQ(a.server.invalidations_sent, b.server.invalidations_sent);
  EXPECT_EQ(a.server.invalidation_retries, b.server.invalidation_retries);
  EXPECT_EQ(a.server.invalidations_lost, b.server.invalidations_lost);
  EXPECT_EQ(a.server.invalidations_queued, b.server.invalidations_queued);
  EXPECT_EQ(a.server.invalidations_redelivered, b.server.invalidations_redelivered);
  EXPECT_EQ(a.server.files_transferred, b.server.files_transferred);
  EXPECT_EQ(a.server.bytes_sent, b.server.bytes_sent);
  EXPECT_EQ(a.server.bytes_received, b.server.bytes_received);

  ExpectIdenticalCacheStats(a.cache, b.cache);

  EXPECT_EQ(a.metrics.requests, b.metrics.requests);
  EXPECT_EQ(a.metrics.cache_misses, b.metrics.cache_misses);
  EXPECT_EQ(a.metrics.stale_hits, b.metrics.stale_hits);
  EXPECT_EQ(a.metrics.validations, b.metrics.validations);
  EXPECT_EQ(a.metrics.invalidations, b.metrics.invalidations);
  EXPECT_EQ(a.metrics.files_transferred, b.metrics.files_transferred);
  EXPECT_EQ(a.metrics.server_operations, b.metrics.server_operations);
  EXPECT_EQ(a.metrics.control_bytes, b.metrics.control_bytes);
  EXPECT_EQ(a.metrics.payload_bytes, b.metrics.payload_bytes);
  EXPECT_EQ(a.metrics.total_bytes, b.metrics.total_bytes);
  EXPECT_DOUBLE_EQ(a.metrics.mean_round_trips, b.metrics.mean_round_trips);
  EXPECT_EQ(a.metrics.degraded_serves, b.metrics.degraded_serves);
  EXPECT_EQ(a.metrics.failed_requests, b.metrics.failed_requests);
  EXPECT_EQ(a.metrics.upstream_retries, b.metrics.upstream_retries);
  EXPECT_EQ(a.metrics.invalidations_lost, b.metrics.invalidations_lost);
  EXPECT_EQ(a.metrics.invalidations_queued, b.metrics.invalidations_queued);
  EXPECT_EQ(a.metrics.invalidations_redelivered, b.metrics.invalidations_redelivered);
  EXPECT_EQ(a.metrics.cache_crashes, b.metrics.cache_crashes);
  EXPECT_EQ(a.metrics.unavailable_seconds, b.metrics.unavailable_seconds);
  EXPECT_EQ(a.metrics.retry_wait_seconds, b.metrics.retry_wait_seconds);
}

}  // namespace webcc

#endif  // WEBCC_TESTS_CORE_IDENTICAL_RESULTS_H_
