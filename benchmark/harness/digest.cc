#include "harness/digest.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace webcc::bench {

namespace {

// FNV-1a over the 8-byte image of each field, in declaration order.
class Hasher {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (value >> (8 * byte)) & 0xff;
      state_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void Add(int value) { Add(static_cast<uint64_t>(static_cast<int64_t>(value))); }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& text) {
    Add(static_cast<uint64_t>(text.size()));
    for (const char c : text) {
      Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  [[nodiscard]] uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

void AddServer(Hasher& h, const ServerStats& s) {
  h.Add(s.get_requests);
  h.Add(s.ims_queries);
  h.Add(s.ims_not_modified);
  h.Add(s.invalidations_sent);
  h.Add(s.invalidation_retries);
  h.Add(s.invalidations_lost);
  h.Add(s.invalidations_queued);
  h.Add(s.invalidations_redelivered);
  h.Add(s.invalidations_delivered);
  h.Add(s.invalidations_undeliverable);
  h.Add(s.files_transferred);
  h.Add(s.bytes_sent);
  h.Add(s.bytes_received);
}

void AddCache(Hasher& h, const CacheStats& c) {
  h.Add(c.requests);
  h.Add(c.hits_fresh);
  h.Add(c.hits_validated);
  h.Add(c.misses_cold);
  h.Add(c.misses_refetched);
  h.Add(c.stale_hits);
  h.Add(c.validations_sent);
  h.Add(c.full_fetches);
  h.Add(c.invalidations_received);
  h.Add(c.invalidations_dropped);
  h.Add(c.evictions);
  h.Add(c.upstream_retries);
  h.Add(c.retry_wait_seconds);
  h.Add(c.degraded_serves);
  h.Add(c.degraded_denied_over_bound);
  h.Add(c.failed_requests);
  h.Add(c.crashes);
  h.Add(c.unavailable_seconds);
  h.Add(c.bytes_to_upstream);
  h.Add(c.bytes_from_upstream);
  h.Add(c.total_hops);
  h.Add(c.max_hops);
  for (const CacheStats::TypeCounters& t : c.by_type) {
    h.Add(t.requests);
    h.Add(t.stale_hits);
    h.Add(t.misses);
    h.Add(t.validations);
    h.Add(t.payload_bytes);
  }
}

void AddMetrics(Hasher& h, const ConsistencyMetrics& m) {
  h.Add(m.requests);
  h.Add(m.cache_misses);
  h.Add(m.stale_hits);
  h.Add(m.validations);
  h.Add(m.invalidations);
  h.Add(m.files_transferred);
  h.Add(m.server_operations);
  h.Add(m.control_bytes);
  h.Add(m.payload_bytes);
  h.Add(m.total_bytes);
  h.Add(m.mean_round_trips);
  h.Add(m.degraded_serves);
  h.Add(m.failed_requests);
  h.Add(m.upstream_retries);
  h.Add(m.invalidations_lost);
  h.Add(m.invalidations_queued);
  h.Add(m.invalidations_redelivered);
  h.Add(m.cache_crashes);
  h.Add(m.unavailable_seconds);
  h.Add(m.retry_wait_seconds);
}

void AddResult(Hasher& h, const SimulationResult& r) {
  h.Add(r.workload_name);
  h.Add(r.policy_desc);
  AddServer(h, r.server);
  AddCache(h, r.cache);
  AddMetrics(h, r.metrics);
}

}  // namespace

uint64_t Digest(const SimulationResult& result) {
  Hasher h;
  AddResult(h, result);
  return h.value();
}

uint64_t Digest(const CacheStats& stats) {
  Hasher h;
  AddCache(h, stats);
  return h.value();
}

uint64_t Digest(const Workload& load) {
  Hasher h;
  h.Add(load.name);
  for (const ObjectSpec& o : load.objects) {
    h.Add(o.name);
    h.Add(static_cast<int>(o.type));
    h.Add(o.size_bytes);
    h.Add(o.initial_age.seconds());
  }
  for (const ModificationEvent& m : load.modifications) {
    h.Add(m.at.seconds());
    h.Add(static_cast<uint64_t>(m.object_index));
    h.Add(m.new_size);
  }
  for (const RequestEvent& r : load.requests) {
    h.Add(r.at.seconds());
    h.Add(static_cast<uint64_t>(r.object_index));
    h.Add(static_cast<uint64_t>(r.client_id));
    h.Add(static_cast<uint64_t>(r.remote));
  }
  h.Add(load.horizon.seconds());
  return h.value();
}

uint64_t Digest(const FleetResult& r) {
  Hasher h;
  h.Add(r.policy_desc);
  h.Add(static_cast<uint64_t>(r.num_caches));
  AddServer(h, r.server);
  h.Add(r.requests);
  h.Add(r.stale_hits);
  h.Add(r.misses);
  h.Add(r.total_link_bytes);
  h.Add(r.modifications);
  h.Add(static_cast<uint64_t>(r.final_subscriptions));
  h.Add(static_cast<uint64_t>(r.peak_subscriptions));
  for (const FleetMemberSummary& m : r.members) {
    h.Add(static_cast<uint64_t>(m.member));
    h.Add(m.requests);
    h.Add(m.stale_hits);
    h.Add(m.degraded_serves);
    h.Add(m.failed_requests);
    h.Add(m.crashes);
    h.Add(m.unavailable_seconds);
  }
  for (const SimulationResult& member : r.member_results) {
    AddResult(h, member);
  }
  return h.value();
}

uint64_t Digest(const HierarchyResult& r) {
  Hasher h;
  h.Add(r.policy_desc);
  AddServer(h, r.server);
  AddCache(h, r.l2);
  AddCache(h, r.l1a);
  AddCache(h, r.l1b);
  h.Add(r.requests);
  h.Add(r.modifications);
  h.Add(r.child_invalidations_sent);
  h.Add(r.child_invalidations_delivered);
  h.Add(r.child_invalidations_dropped);
  h.Add(r.child_invalidations_queued);
  h.Add(r.child_invalidations_redelivered);
  h.Add(static_cast<uint64_t>(r.pending_child_invalidations));
  return h.value();
}

bool DigestBook::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read digest book " + path;
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    if (!(fields >> workload >> seed)) {
      *error = path + ":" + std::to_string(line_no) + ": expected <workload> <seed> <digest>...";
      return false;
    }
    std::vector<uint64_t> digests;
    std::string hex;
    while (fields >> hex) {
      char* end = nullptr;
      digests.push_back(std::strtoull(hex.c_str(), &end, 16));
      if (end == hex.c_str() || *end != '\0') {
        *error = path + ":" + std::to_string(line_no) + ": bad digest '" + hex + "'";
        return false;
      }
    }
    entries_[{workload, seed}] = std::move(digests);
  }
  return true;
}

const std::vector<uint64_t>* DigestBook::Find(const std::string& workload, uint64_t seed) const {
  const auto it = entries_.find({workload, seed});
  return it == entries_.end() ? nullptr : &it->second;
}

std::string DigestBook::Line(const std::string& workload, uint64_t seed,
                             const std::vector<uint64_t>& digests) {
  std::string line = workload + " " + std::to_string(seed);
  char hex[24];
  for (const uint64_t d : digests) {
    std::snprintf(hex, sizeof(hex), " %016" PRIx64, d);
    line += hex;
  }
  return line;
}

DigestChecker::DigestChecker(const DigestBook& book, const std::string& workload, uint64_t seed) {
  if (const std::vector<uint64_t>* recorded = book.Find(workload, seed)) {
    reference_ = *recorded;
    recorded_ = true;
  }
}

uint64_t DigestChecker::Check(const std::vector<uint64_t>& digests) {
  if (reference_.empty()) {
    reference_ = digests;  // unrecorded seed: later passes must repeat the first
  }
  uint64_t bad = 0;
  for (size_t i = 0; i < digests.size(); ++i) {
    if (i >= reference_.size() || digests[i] != reference_[i]) {
      ++bad;
      if (notes_.size() < 8) {
        char note[96];
        std::snprintf(note, sizeof(note), "run %zu: digest %016" PRIx64 " != reference %016" PRIx64,
                      i, digests[i], i < reference_.size() ? reference_[i] : 0);
        notes_.emplace_back(note);
      }
    }
  }
  if (digests.size() != reference_.size()) {
    notes_.push_back("pass has " + std::to_string(digests.size()) + " runs, reference " +
                     std::to_string(reference_.size()));
    bad += digests.size() < reference_.size() ? reference_.size() - digests.size() : 0;
  }
  runs_ += digests.size();
  mismatches_ += bad;
  return bad;
}

}  // namespace webcc::bench
