// Output checks for the simulated workloads: a 64-bit digest of every
// statistic a run returns, and the book of digests recorded in
// benchmark/digests.txt.
//
// The simulator is deterministic, so a run's digest must repeat exactly
// across passes, thread counts and builds. A digest mismatch against the
// book (or, for a seed the book lacks, against the run's first pass) is
// what the fail_share numerator counts.

#ifndef WEBCC_BENCHMARK_HARNESS_DIGEST_H_
#define WEBCC_BENCHMARK_HARNESS_DIGEST_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fleet.h"
#include "src/core/hierarchy.h"
#include "src/core/simulation.h"

namespace webcc::bench {

uint64_t Digest(const SimulationResult& result);
uint64_t Digest(const FleetResult& result);
uint64_t Digest(const HierarchyResult& result);
uint64_t Digest(const CacheStats& stats);
uint64_t Digest(const Workload& load);  // objects, modifications, requests

// Recorded digests, one line per (workload, seed):
//   <workload> <seed> <hex digest> <hex digest> ...
// in run order. '#' starts a comment line.
class DigestBook {
 public:
  // Loads `path`; returns false (with a message in *error) on a missing
  // file or a malformed line.
  bool Load(const std::string& path, std::string* error);
  // The recorded digests for (workload, seed), or null when none were.
  [[nodiscard]] const std::vector<uint64_t>* Find(const std::string& workload,
                                                  uint64_t seed) const;
  // Formats one line of the book.
  static std::string Line(const std::string& workload, uint64_t seed,
                          const std::vector<uint64_t>& digests);

 private:
  std::map<std::pair<std::string, uint64_t>, std::vector<uint64_t>> entries_;
};

// Checks each pass of a workload against its reference digests: the book's
// when it has the seed, else the first pass checked. Counts what fail_share
// needs and keeps the first mismatches for the report.
class DigestChecker {
 public:
  DigestChecker(const DigestBook& book, const std::string& workload, uint64_t seed);

  // Checks one pass; `digests` is in run order. Returns the mismatches.
  uint64_t Check(const std::vector<uint64_t>& digests);

  [[nodiscard]] bool recorded() const { return recorded_; }
  [[nodiscard]] uint64_t runs() const { return runs_; }
  [[nodiscard]] uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<uint64_t> reference_;
  bool recorded_ = false;
  uint64_t runs_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace webcc::bench

#endif  // WEBCC_BENCHMARK_HARNESS_DIGEST_H_
