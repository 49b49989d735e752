// The proxy cache.
//
// Sits between clients and an Upstream (the origin server, or a parent cache
// in hierarchical configurations), applying a ConsistencyPolicy to decide
// when cached copies may be served. Supports the paper's two retrieval
// modes:
//
//   * kFullRefetch (base simulator): an expired copy is replaced by a full
//     GET at the next request, whether or not it actually changed.
//   * kConditionalGet (optimized simulator): expiry only marks the copy; the
//     next request issues a combined "send if changed" query, trading a
//     round trip for body bytes (paper §3).
//
// Staleness is scored against ground truth: the cache holds a pointer to
// the authoritative ObjectStore purely as an oracle for metrics. Policy
// decisions never read the oracle.
//
// Storage is the columnar EntryTable (entry_table.h): a slot arena with the
// freshness-critical fields mirrored into flat columns, an open-addressing
// object index, and an intrusive LRU. The per-request hot path — probe,
// touch, freshness check — does no allocation and, for policies that
// declare a ValidityModel shape, no virtual dispatch.

#ifndef WEBCC_SRC_CACHE_PROXY_CACHE_H_
#define WEBCC_SRC_CACHE_PROXY_CACHE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/entry.h"
#include "src/cache/entry_table.h"
#include "src/cache/policy.h"
#include "src/cache/upstream.h"
#include "src/origin/object_store.h"

namespace webcc {

class SimEngine;

enum class RefreshMode {
  kFullRefetch,     // base simulator behaviour
  kConditionalGet,  // optimized simulator behaviour
};

struct CacheConfig {
  RefreshMode refresh_mode = RefreshMode::kConditionalGet;
  // 0 means unbounded (the paper's configuration: "valid entries are never
  // evicted"). Otherwise LRU eviction keeps total body bytes under the cap.
  int64_t capacity_bytes = 0;
  // Stale-if-error bound: when > 0, an upstream failure may be absorbed by
  // serving the local copy only while its staleness age (now minus the last
  // moment the copy was known good) is within this bound; beyond it the
  // request fails instead of serving arbitrarily old bytes. 0 = unbounded,
  // the simulators' historical behaviour (fig9 goldens depend on it). The
  // live serving frontend sets a finite bound so the fig9 bounded-staleness
  // story holds under real overload.
  SimDuration stale_serve_bound = SimDuration(0);
};

// How a request was satisfied.
enum class ServeKind {
  kHitFresh,      // served locally, no upstream contact
  kHitValidated,  // upstream said 304; body served locally
  kMissCold,      // object not in cache; body fetched
  kMissRefetched, // copy expired/invalid; body fetched
  kDegraded,      // upstream unreachable; policy-invalid local copy served
  kFailed,        // no body to serve: cache crashed, or fetch failed cold
};

struct ServeResult {
  ServeKind kind = ServeKind::kHitFresh;
  // Oracle verdict: the body handed to the client was older than the
  // server's current version.
  bool stale = false;
  // Bytes this request moved on the upstream link (both directions).
  int64_t link_bytes = 0;
  // Round trips this request incurred: 0 for a fresh local serve, 1 + the
  // upstream's own hops otherwise. Multiplied by a per-hop RTT this is the
  // client-visible latency the paper's bandwidth optimization trades away.
  int hops = 0;
  // For kDegraded serves: the copy's staleness age (now minus the last
  // known-good contact) at serve time, so callers can report how stale the
  // degraded bytes actually were. Zero for every other kind.
  SimDuration staleness;
};

struct CacheStats {
  uint64_t requests = 0;
  uint64_t hits_fresh = 0;
  uint64_t hits_validated = 0;
  uint64_t misses_cold = 0;
  uint64_t misses_refetched = 0;
  uint64_t stale_hits = 0;          // oracle-stale bodies served
  uint64_t validations_sent = 0;    // conditional queries issued upstream
  uint64_t full_fetches = 0;        // unconditional GETs issued upstream
  uint64_t invalidations_received = 0;
  uint64_t invalidations_dropped = 0;  // arrived while unreachable
  uint64_t evictions = 0;
  // Fault accounting (all zero in a fault-free run).
  uint64_t upstream_retries = 0;    // extra exchange attempts beyond the first
  int64_t retry_wait_seconds = 0;   // timeout+backoff time spent on fetches
  uint64_t degraded_serves = 0;     // stale-if-error local serves
  // Stale-if-error denials: the local copy existed but exceeded
  // CacheConfig::stale_serve_bound, so the request failed instead. A
  // subset of failed_requests; always 0 with an unbounded (0) bound.
  uint64_t degraded_denied_over_bound = 0;
  uint64_t failed_requests = 0;     // requests with nothing to serve
  uint64_t crashes = 0;
  int64_t unavailable_seconds = 0;  // crash-to-restart dark time
  int64_t bytes_to_upstream = 0;
  int64_t bytes_from_upstream = 0;
  // Round-trip accounting across all requests (latency proxy).
  uint64_t total_hops = 0;
  int max_hops = 0;

  // Per-file-type breakdown (the §5 "different types of files exhibit
  // different update behavior" analysis).
  struct TypeCounters {
    uint64_t requests = 0;
    uint64_t stale_hits = 0;
    uint64_t misses = 0;          // body transfers
    uint64_t validations = 0;     // conditional queries issued
    int64_t payload_bytes = 0;    // body bytes fetched
  };
  std::array<TypeCounters, kNumFileTypes> by_type{};

  // Conservation law (chaos oracle invariant 3): HandleRequest resolves
  // every request to exactly one ServeKind, so this always equals requests.
  uint64_t ServeKindTotal() const {
    return hits_fresh + hits_validated + misses_cold + misses_refetched + degraded_serves +
           failed_requests;
  }

  // Paper §4.1 definition: a miss is a request that moved a body.
  uint64_t Misses() const { return misses_cold + misses_refetched; }
  int64_t LinkBytes() const { return bytes_to_upstream + bytes_from_upstream; }
  double MissRate() const {
    return requests == 0 ? 0.0 : static_cast<double>(Misses()) / static_cast<double>(requests);
  }
  double StaleRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stale_hits) / static_cast<double>(requests);
  }
  // Mean upstream round trips per request (0 = everything served locally).
  double MeanHops() const {
    return requests == 0 ? 0.0 : static_cast<double>(total_hops) / static_cast<double>(requests);
  }
};

class ProxyCache : public InvalidationSink, public Upstream {
 public:
  // `oracle` is the authoritative store used only for staleness metrics; it
  // may be null, in which case stale accounting is disabled.
  ProxyCache(std::string name, Upstream* upstream, std::unique_ptr<ConsistencyPolicy> policy,
             CacheConfig config, const ObjectStore* oracle);

  ~ProxyCache() override;
  ProxyCache(const ProxyCache&) = delete;
  ProxyCache& operator=(const ProxyCache&) = delete;

  // Serves one client request for `id` at time `now`.
  ServeResult HandleRequest(ObjectId id, SimTime now);

  // As above, additionally reporting the entry that served the request (or
  // nullptr if nothing is cached afterwards — failed request, or the entry
  // self-evicted under capacity pressure). Saves callers the second index
  // probe of a HandleRequest-then-Find pair; the pointer is invalidated by
  // any subsequent cache mutation.
  ServeResult HandleRequest(ObjectId id, SimTime now, const CacheEntry** served_entry);

  // Serves the longest prefix of the ascending request `times` for `id` that
  // the cached copy answers fresh, exactly as that many HandleRequest calls
  // would, and returns its length: 0 when nothing is cached, the cache is
  // crashed, or the copy is not fresh at times[0]. Object-order replay
  // (src/core/replay.h) books each run of fresh hits between two upstream
  // contacts through this. The caller vouches that no modification of `id`
  // falls inside `times`, so the copy's oracle staleness is one verdict for
  // the whole run. Checks that the policy is kTimeBased or kValidBit, so
  // freshness only falls with time and the prefix is a binary search, and
  // wants no serve feedback, so a run leaves no per-serve trace.
  size_t ServeFreshRun(ObjectId id, std::span<const SimTime> times);

  // Installs valid copies of every object in `store` as of `now` without
  // touching the upstream link (Figures 2–5: "the cache is pre-loaded with
  // valid copies of all the files held in the primary server").
  void Preload(const ObjectStore& store, SimTime now);
  // Preloads a single object.
  void PreloadObject(const WebObject& object, SimTime now);

  // --- InvalidationSink ---
  bool DeliverInvalidation(ObjectId id, SimTime now) override;

  // Simulates network partition from the server: while unreachable the cache
  // drops invalidation notices (the server retries).
  void set_reachable(bool reachable) { reachable_ = reachable; }
  bool reachable() const { return reachable_; }

  // --- Hierarchical redelivery (the origin's queue machinery, one level
  // down) ---

  // Arms queue-and-redeliver for child invalidation notices: a notice a
  // child cannot accept is parked per child and re-driven on a timer and at
  // NoteChildContact, exactly mirroring OriginServer's pending queues. Not
  // armed (the default): a failed forward is dropped, the pre-fault
  // hierarchy semantics. `engine` must outlive this cache.
  void ArmChildRedelivery(SimEngine* engine, SimDuration retry_interval);
  // First contact from `child` after an outage (a restarted leaf, a healed
  // link): re-drives every notice queued for it.
  void NoteChildContact(InvalidationSink* child, SimTime now);
  // Parks a notice for `child`, deduplicated per object. Called internally
  // on failed forwards when redelivery is armed, and by FaultedLink when a
  // jittered delivery fails after the parent already counted it committed.
  void QueueChildInvalidation(InvalidationSink* child, ObjectId id);
  // Gauge: notices currently parked across all children. The child registry
  // and this journal live with the cache's on-disk metadata, so both survive
  // a crash (a restarted parent resumes redelivery; children that lost
  // interest are skipped at flush time).
  size_t PendingChildInvalidations() const;

  // --- Crash/restart (the fault layer's cache failures) ---

  // The process dies at `now`: in-memory state is gone, the cache stops
  // answering clients and invalidation notices. Whatever was snapshotted
  // beforehand is what a later Restart can recover.
  void Crash(SimTime now);
  // Comes back at `now`; accounts the dark window. Entry recovery (via
  // snapshot.h) is the caller's job — a cold start is legal too.
  void Restart(SimTime now);
  bool crashed() const { return crashed_; }
  // Forgets every entry with no eviction accounting and no upstream
  // unsubscribe — a dead process cannot say goodbye.
  void DropAllEntries();

  // --- Upstream (serving child caches in a hierarchy) ---
  FullReply FetchFull(ObjectId id, SimTime now) override;
  CondReply FetchIfModified(ObjectId id, uint64_t held_version, SimTime now) override;
  void SubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;
  void UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) override;

  // --- Persistence (snapshot.h) ---

  // Visits every cached entry in LRU order (most recent first).
  void ForEachEntry(const std::function<void(const CacheEntry&)>& fn) const;

  // Copies every cached entry in LRU order (most recent first) — the chaos
  // oracle's end-of-run state capture for invariant 4 comparisons.
  std::vector<CacheEntry> SnapshotEntries() const;

  // Reinstalls an entry verbatim, as snapshot recovery does after a restart.
  // Deliberately does NOT register invalidation interest with the upstream:
  // a restarted cache is unknown to the server until it talks to it again —
  // exactly the recovery complication §6 ascribes to invalidation protocols.
  // The object must not already be cached.
  void RestoreEntry(const CacheEntry& entry);

  // --- Maintenance ---

  // Batched expiry: one scan over the expiry column marks every entry whose
  // horizon has passed invalid (the §3 "expiry only marks the copy" rule
  // applied eagerly instead of per request). Freshness-neutral for
  // time-based policies — IsValid checks expires_at anyway — but it changes
  // the `valid` bits a snapshot persists, so it is opt-in maintenance for
  // operators that sweep between request bursts; no simulation path calls
  // it. Returns the number of entries marked.
  size_t SweepExpired(SimTime now);

  // --- Introspection ---
  bool Contains(ObjectId id) const { return table_.Find(id) != EntryTable::kNoSlot; }
  // Returns the entry for `id`, or nullptr. Pointer invalidated by mutation.
  const CacheEntry* Find(ObjectId id) const;
  size_t EntryCount() const { return table_.size(); }
  int64_t StoredBytes() const { return stored_bytes_; }

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  ConsistencyPolicy& policy() { return *policy_; }
  const ConsistencyPolicy& policy() const { return *policy_; }
  const std::string& name() const { return name_; }
  const CacheConfig& config() const { return config_; }

 private:
  using SlotId = EntryTable::SlotId;

  // The request path; reports the serving slot through `slot_out` (kNoSlot
  // when the request failed; possibly stale after capacity eviction — the
  // overload re-validates with Holds).
  ServeResult HandleRequestImpl(ObjectId id, SimTime now, SlotId* slot_out);

  // The policy's IsValid answered from the hot columns when its declared
  // ValidityModel allows, falling back to the virtual call for kCustom.
  bool FreshAt(SlotId slot, SimTime now) const;

  // Installs/overwrites the body metadata from an upstream reply, runs the
  // policy's OnFetch, and re-mirrors the hot columns.
  void InstallBody(SlotId slot, ObjectId id, int64_t body_bytes, uint64_t version,
                   SimTime last_modified, std::optional<SimTime> expires, SimTime now);
  // Evicts LRU entries until stored bytes fit the capacity.
  void EnforceCapacity();
  void EvictSlot(SlotId slot);
  // Oracle staleness check for a local serve.
  bool IsStale(const CacheEntry& entry) const;
  // Records a local serve on the entry (count + feedback timestamps).
  void RecordServe(CacheEntry& entry, SimTime now);
  // Books `n` fresh local serves of `entry`, the last at `now`: the hit,
  // per-type and stale counts and the serve count. Returns the oracle's
  // staleness verdict. Both fresh paths share it, HandleRequest with n = 1.
  bool BookFreshHits(CacheEntry& entry, SimTime now, uint64_t n);
  // Forwards an invalidation to subscribed children.
  void ForwardInvalidation(ObjectId id, SimTime now);

  // Accounts a fetch reply's retry/backoff cost against stats_.
  template <typename Reply>
  void NoteFetchCost(const Reply& reply) {
    stats_.upstream_retries += static_cast<uint64_t>(reply.attempts > 1 ? reply.attempts - 1 : 0);
    stats_.retry_wait_seconds += reply.fetch_delay.seconds();
    // Retransmitted requests cross the wire once per extra attempt.
    stats_.bytes_to_upstream += ControlWireBytes() * (reply.attempts - 1);
  }
  // Serves the local copy because the upstream could not be reached.
  ServeResult ServeDegraded(CacheEntry& entry, SimTime now);

  std::string name_;
  Upstream* upstream_;
  std::unique_ptr<ConsistencyPolicy> policy_;
  CacheConfig config_;
  const ObjectStore* oracle_;
  bool reachable_ = true;
  bool crashed_ = false;
  SimTime crashed_at_;

  // Policy traits cached at construction (policies never change shape after
  // that), so the request path skips the virtual calls.
  ValidityModel validity_model_ = ValidityModel::kCustom;
  bool wants_feedback_ = false;
  bool uses_server_invalidation_ = false;

  EntryTable table_;
  int64_t stored_bytes_ = 0;
  CacheStats stats_;

  // Child subscriptions (this cache acting as a parent in a hierarchy).
  std::unordered_map<ObjectId, std::vector<InvalidationSink*>> child_subs_;
  // Downstream invalidation notices forwarded (counted for the Fig 1
  // ablation's per-link message accounting) and dropped by unreachable
  // children. `dropped` counts failed delivery attempts; with redelivery
  // armed a dropped notice is also queued and retried rather than lost.
  uint64_t child_invalidations_sent_ = 0;
  uint64_t child_invalidations_dropped_ = 0;
  uint64_t child_invalidations_delivered_ = 0;
  uint64_t child_invalidations_queued_ = 0;
  uint64_t child_invalidations_redelivered_ = 0;

  // Per-child pending-notice journal (insertion order = registration order,
  // so flushes are deterministic). `queued` flags are indexed by ObjectId
  // for O(1) dedup, mirroring OriginServer::pending_flag_.
  struct ChildQueue {
    InvalidationSink* child = nullptr;
    std::vector<ObjectId> ids;
    std::vector<bool> queued;
  };
  ChildQueue& QueueFor(InvalidationSink* child);
  void ArmChildFlushTimer();
  void FlushChildQueue(ChildQueue& queue, SimTime now);

  std::vector<ChildQueue> child_pending_;
  SimEngine* child_redelivery_engine_ = nullptr;
  SimDuration child_retry_interval_ = Minutes(5);
  bool child_flush_timer_armed_ = false;

 public:
  uint64_t child_invalidations_sent() const { return child_invalidations_sent_; }
  uint64_t child_invalidations_dropped() const { return child_invalidations_dropped_; }
  uint64_t child_invalidations_delivered() const { return child_invalidations_delivered_; }
  uint64_t child_invalidations_queued() const { return child_invalidations_queued_; }
  uint64_t child_invalidations_redelivered() const { return child_invalidations_redelivered_; }
};

}  // namespace webcc

#endif  // WEBCC_SRC_CACHE_PROXY_CACHE_H_
