// Keyed registry of materialized workloads.
//
// Generating a paper-scale workload is the expensive part of many runs —
// the 56-day Worrell stream is ~1.7M requests — and chaos campaigns (and
// figures sharing one generator config) would otherwise rebuild the
// same event streams hundreds of times. The registry materializes each
// distinct configuration once per process and hands out const references;
// Workload addresses are stable for the process lifetime, so callers may
// hold the reference across runs and threads.
//
// Thread-safe: a chaos campaign's worker pool resolves workloads
// concurrently. The build function runs under the registry lock — two
// threads asking for the same key never generate twice.

#ifndef WEBCC_SRC_WORKLOAD_REGISTRY_H_
#define WEBCC_SRC_WORKLOAD_REGISTRY_H_

#include <functional>
#include <string>

#include "src/workload/campus.h"
#include "src/workload/workload.h"
#include "src/workload/worrell.h"

namespace webcc {

// Returns the workload registered under `key`, building it on first use.
// The key must fully determine the workload — two different configurations
// behind one key would silently alias (the determinism lint's cardinal sin).
const Workload& SharedWorkload(const std::string& key, const std::function<Workload()>& build);

// Canonical registry key for a Worrell configuration (every field folded in).
std::string WorrellWorkloadKey(const WorrellConfig& config);

// Convenience: SharedWorkload keyed by WorrellWorkloadKey(config).
const Workload& SharedWorrellWorkload(const WorrellConfig& config);

// Canonical registry keys for a campus profile (every field folded in). The
// two keys differ only in prefix: "campus/" is the generator's ground-truth
// Workload, "campus-trace/" is the same ground truth observed through a
// logging server — CLF-serialized, re-ingested, and compiled back into a
// scripted workload (the paper's log-replay methodology, observation
// granularity included).
std::string CampusWorkloadKey(const CampusServerProfile& profile);
std::string CampusTraceWorkloadKey(const CampusServerProfile& profile);

// Convenience: SharedWorkload keyed by CampusWorkloadKey(profile), holding
// GenerateCampusWorkload(profile).workload (the exact modification schedule).
const Workload& SharedCampusWorkload(const CampusServerProfile& profile);

// The trace-driven variant: the profile's Trace round-trips through the CLF
// writer/reader (local clients keep their ".campus.edu" suffix, so Table 1's
// remote split survives) and CompileTrace infers the modification schedule
// from observed Last-Modified transitions.
const Workload& SharedCampusTraceWorkload(const CampusServerProfile& profile);

// Number of distinct workloads currently materialized (introspection/tests).
size_t SharedWorkloadCount();

// Drops every cached workload. Invalidates all outstanding references —
// tests only; never call while runs are in flight.
void ClearSharedWorkloads();

}  // namespace webcc

#endif  // WEBCC_SRC_WORKLOAD_REGISTRY_H_
