#include "src/cache/proxy_cache.h"

#include <algorithm>

#include "src/http/message.h"
#include "src/sim/engine.h"
#include "src/util/check.h"

namespace webcc {

ProxyCache::ProxyCache(std::string name, Upstream* upstream,
                       std::unique_ptr<ConsistencyPolicy> policy, CacheConfig config,
                       const ObjectStore* oracle)
    : name_(std::move(name)),
      upstream_(upstream),
      policy_(std::move(policy)),
      config_(config),
      oracle_(oracle) {
  WEBCC_CHECK(upstream_ != nullptr);
  WEBCC_CHECK(policy_ != nullptr);
  validity_model_ = policy_->validity_model();
  wants_feedback_ = policy_->WantsServeFeedback();
  uses_server_invalidation_ = policy_->UsesServerInvalidation();
}

ProxyCache::~ProxyCache() = default;

const CacheEntry* ProxyCache::Find(ObjectId id) const {
  const SlotId slot = table_.Find(id);
  return slot == EntryTable::kNoSlot ? nullptr : &table_.entry(slot);
}

bool ProxyCache::FreshAt(SlotId slot, SimTime now) const {
  switch (validity_model_) {
    case ValidityModel::kTimeBased:
      return table_.FreshTimeBased(slot, now);
    case ValidityModel::kValidBit:
      return table_.ValidBit(slot);
    case ValidityModel::kCustom:
      break;
  }
  return policy_->IsValid(table_.entry(slot), now);
}

bool ProxyCache::IsStale(const CacheEntry& entry) const {
  if (oracle_ == nullptr || !oracle_->Contains(entry.object)) {
    return false;
  }
  // Compared by modification time, not version counter: entries fetched over
  // the HTTP path carry synthetic version numbers that are not in the
  // store's numbering domain, while Last-Modified is universal. At
  // one-second resolution two changes within the same second are
  // indistinguishable — the same granularity every HTTP/1.0 cache lived
  // with.
  return entry.last_modified < oracle_->Get(entry.object).last_modified;
}

void ProxyCache::RecordServe(CacheEntry& entry, SimTime now) {
  ++entry.serve_count;
  if (wants_feedback_) {
    entry.serves_since_validation.push_back(now);
  }
}

// Inline: HandleRequestImpl's fresh branch is the serving hot path.
inline bool ProxyCache::BookFreshHits(CacheEntry& entry, SimTime now, uint64_t n) {
  const bool stale = IsStale(entry);
  stats_.hits_fresh += n;
  auto& tc = stats_.by_type[static_cast<size_t>(entry.type)];
  tc.requests += n;
  if (stale) {
    stats_.stale_hits += n;
    tc.stale_hits += n;
  }
  entry.serve_count += n;
  if (wants_feedback_) {
    // Only HandleRequest books a feedback policy's serves, one at a time.
    entry.serves_since_validation.push_back(now);
  }
  return stale;
}

void ProxyCache::InstallBody(SlotId slot, ObjectId id, int64_t body_bytes, uint64_t version,
                             SimTime last_modified, std::optional<SimTime> expires, SimTime now) {
  CacheEntry& entry = table_.entry(slot);
  stored_bytes_ += body_bytes - entry.size_bytes;
  entry.object = id;
  if (oracle_ != nullptr && oracle_->Contains(id)) {
    entry.type = oracle_->Get(id).type;
  }
  entry.size_bytes = body_bytes;
  entry.version = version;
  entry.last_modified = last_modified;
  entry.fetched_at = now;
  entry.serves_since_validation.clear();
  FetchInfo info;
  info.last_modified = last_modified;
  info.expires = expires;
  policy_->OnFetch(entry, now, info);
  table_.SyncHotColumns(slot);
}

void ProxyCache::EvictSlot(SlotId slot) {
  const CacheEntry& entry = table_.entry(slot);
  stored_bytes_ -= entry.size_bytes;
  if (uses_server_invalidation_) {
    upstream_->UnsubscribeInvalidation(this, entry.object);
  }
  table_.Erase(slot);
  ++stats_.evictions;
}

void ProxyCache::EnforceCapacity() {
  if (config_.capacity_bytes <= 0) {
    return;
  }
  while (stored_bytes_ > config_.capacity_bytes && !table_.empty()) {
    EvictSlot(table_.LruBack());
  }
}

size_t ProxyCache::SweepExpired(SimTime now) {
  if (crashed_) {
    return 0;  // a dead process runs no maintenance
  }
  return table_.SweepExpired(now);
}

ServeResult ProxyCache::HandleRequest(ObjectId id, SimTime now) {
  SlotId slot = EntryTable::kNoSlot;
  return HandleRequestImpl(id, now, &slot);
}

ServeResult ProxyCache::HandleRequest(ObjectId id, SimTime now, const CacheEntry** served_entry) {
  SlotId slot = EntryTable::kNoSlot;
  const ServeResult result = HandleRequestImpl(id, now, &slot);
  // The slot may have self-evicted under capacity pressure; Holds is sound
  // here because nothing inserted (and so nothing recycled the slot) since.
  *served_entry =
      slot != EntryTable::kNoSlot && table_.Holds(slot, id) ? &table_.entry(slot) : nullptr;
  return result;
}

size_t ProxyCache::ServeFreshRun(ObjectId id, std::span<const SimTime> times) {
  WEBCC_CHECK(validity_model_ != ValidityModel::kCustom && !wants_feedback_)
      << "a fresh run needs a time-based or valid-bit policy without serve feedback";
  if (crashed_ || times.empty()) {
    return 0;
  }
  const SlotId slot = table_.Find(id);
  if (slot == EntryTable::kNoSlot) {
    return 0;
  }
  // valid && now < expires_at, or the valid bit alone: true on a prefix of
  // ascending times.
  const auto n = static_cast<size_t>(
      std::partition_point(times.begin(), times.end(),
                           [this, slot](SimTime at) { return FreshAt(slot, at); }) -
      times.begin());
  if (n == 0) {
    return 0;
  }
  // n touches leave the slot at the front as one does.
  table_.TouchFront(slot);
  stats_.requests += n;
  BookFreshHits(table_.entry(slot), times[n - 1], n);
  return n;
}

ServeResult ProxyCache::HandleRequestImpl(ObjectId id, SimTime now, SlotId* slot_out) {
  *slot_out = EntryTable::kNoSlot;
  ++stats_.requests;
  ServeResult result;
  const int64_t link_before = stats_.LinkBytes();

  if (crashed_) {
    // A dead process serves nothing.
    ++stats_.failed_requests;
    result.kind = ServeKind::kFailed;
    return result;
  }

  SlotId slot = table_.Find(id);
  if (slot == EntryTable::kNoSlot) {
    // Cold miss: unconditional fetch.
    ++stats_.full_fetches;
    stats_.bytes_to_upstream += ControlWireBytes();
    const auto reply = upstream_->FetchFull(id, now);
    NoteFetchCost(reply);
    if (!reply.ok) {
      // Nothing cached and nothing fetched: the client gets an error.
      ++stats_.failed_requests;
      result.kind = ServeKind::kFailed;
      result.link_bytes = stats_.LinkBytes() - link_before;
      return result;
    }
    stats_.bytes_from_upstream += DocumentWireBytes(reply.body_bytes);

    slot = table_.InsertFront(id);
    InstallBody(slot, id, reply.body_bytes, reply.version, reply.last_modified, reply.expires,
                now);
    if (uses_server_invalidation_) {
      upstream_->SubscribeInvalidation(this, id);
    }
    CacheEntry& entry = table_.entry(slot);
    RecordServe(entry, now);
    {
      auto& tc = stats_.by_type[static_cast<size_t>(entry.type)];
      ++tc.requests;
      ++tc.misses;
      tc.payload_bytes += reply.body_bytes;
    }
    ++stats_.misses_cold;
    result.kind = ServeKind::kMissCold;
    result.hops = 1 + reply.upstream_hops;
    EnforceCapacity();
    result.link_bytes = stats_.LinkBytes() - link_before;
    stats_.total_hops += result.hops;
    stats_.max_hops = std::max(stats_.max_hops, result.hops);
    *slot_out = slot;
    return result;
  }

  table_.TouchFront(slot);
  *slot_out = slot;

  if (FreshAt(slot, now)) {
    // Fresh (per policy) local serve — possibly stale in truth.
    result.kind = ServeKind::kHitFresh;
    result.stale = BookFreshHits(table_.entry(slot), now, 1);
    result.link_bytes = 0;
    result.hops = 0;
    return result;
  }

  // Expired or invalidated copy.
  if (config_.refresh_mode == RefreshMode::kFullRefetch) {
    // Base simulator: re-fetch the body unconditionally.
    ++stats_.full_fetches;
    stats_.bytes_to_upstream += ControlWireBytes();
    const auto reply = upstream_->FetchFull(id, now);
    NoteFetchCost(reply);
    if (!reply.ok) {
      result = ServeDegraded(table_.entry(slot), now);
      result.link_bytes = stats_.LinkBytes() - link_before;
      return result;
    }
    stats_.bytes_from_upstream += DocumentWireBytes(reply.body_bytes);
    InstallBody(slot, id, reply.body_bytes, reply.version, reply.last_modified, reply.expires,
                now);
    if (uses_server_invalidation_) {
      // Contact re-registers interest — how a server re-learns who holds
      // what after state loss (idempotent while registered).
      upstream_->SubscribeInvalidation(this, id);
    }
    CacheEntry& entry = table_.entry(slot);
    RecordServe(entry, now);
    {
      auto& tc = stats_.by_type[static_cast<size_t>(entry.type)];
      ++tc.requests;
      ++tc.misses;
      tc.payload_bytes += reply.body_bytes;
    }
    ++stats_.misses_refetched;
    result.kind = ServeKind::kMissRefetched;
    result.hops = 1 + reply.upstream_hops;
    EnforceCapacity();
    result.link_bytes = stats_.LinkBytes() - link_before;
    stats_.total_hops += result.hops;
    stats_.max_hops = std::max(stats_.max_hops, result.hops);
    return result;
  }

  // Optimized simulator: combined "send if changed since" query.
  ++stats_.validations_sent;
  stats_.bytes_to_upstream += ControlWireBytes();
  const auto reply = upstream_->FetchIfModified(id, table_.version(slot), now);
  NoteFetchCost(reply);
  if (!reply.ok) {
    // Validation impossible: serve what we have (stale-if-error).
    result = ServeDegraded(table_.entry(slot), now);
    result.link_bytes = stats_.LinkBytes() - link_before;
    return result;
  }
  if (uses_server_invalidation_) {
    upstream_->SubscribeInvalidation(this, id);  // contact re-registers interest
  }
  CacheEntry& entry = table_.entry(slot);
  policy_->OnValidationOutcome(entry, reply.modified, reply.last_modified, now);
  if (!reply.modified) {
    stats_.bytes_from_upstream += ControlWireBytes();  // 304 Not Modified
    entry.serves_since_validation.clear();
    entry.validated_at = now;
    FetchInfo info;
    info.last_modified = entry.last_modified;
    info.expires = reply.expires;
    policy_->OnFetch(entry, now, info);
    table_.SyncHotColumns(slot);
    RecordServe(entry, now);
    {
      auto& tc = stats_.by_type[static_cast<size_t>(entry.type)];
      ++tc.requests;
      ++tc.validations;
    }
    ++stats_.hits_validated;
    result.kind = ServeKind::kHitValidated;
    result.hops = 1 + reply.upstream_hops;
    result.link_bytes = stats_.LinkBytes() - link_before;
    stats_.total_hops += result.hops;
    stats_.max_hops = std::max(stats_.max_hops, result.hops);
    return result;
  }

  stats_.bytes_from_upstream += DocumentWireBytes(reply.body_bytes);
  InstallBody(slot, id, reply.body_bytes, reply.version, reply.last_modified, reply.expires,
              now);
  RecordServe(entry, now);
  {
    auto& tc = stats_.by_type[static_cast<size_t>(entry.type)];
    ++tc.requests;
    ++tc.validations;
    ++tc.misses;
    tc.payload_bytes += reply.body_bytes;
  }
  ++stats_.misses_refetched;
  result.kind = ServeKind::kMissRefetched;
  result.hops = 1 + reply.upstream_hops;
  EnforceCapacity();
  result.link_bytes = stats_.LinkBytes() - link_before;
  stats_.total_hops += result.hops;
  stats_.max_hops = std::max(stats_.max_hops, result.hops);
  return result;
}

ServeResult ProxyCache::ServeDegraded(CacheEntry& entry, SimTime now) {
  // Staleness age: time since the copy was last known good (a fetch or a
  // successful validation, whichever is later — preloaded entries only have
  // the fetch stamp).
  const SimDuration age = now - std::max(entry.validated_at, entry.fetched_at);
  if (config_.stale_serve_bound > SimDuration(0) && age > config_.stale_serve_bound) {
    // Too stale to absorb the upstream failure: fail the request rather
    // than serve arbitrarily old bytes.
    ++stats_.degraded_denied_over_bound;
    ++stats_.failed_requests;
    ServeResult denied;
    denied.kind = ServeKind::kFailed;
    return denied;
  }
  ServeResult result;
  result.kind = ServeKind::kDegraded;
  result.staleness = age;
  result.stale = IsStale(entry);
  if (result.stale) {
    ++stats_.stale_hits;
  }
  ++stats_.degraded_serves;
  {
    auto& tc = stats_.by_type[static_cast<size_t>(entry.type)];
    ++tc.requests;
    if (result.stale) {
      ++tc.stale_hits;
    }
  }
  RecordServe(entry, now);
  return result;
}

void ProxyCache::Crash(SimTime now) {
  WEBCC_CHECK(!crashed_) << "cache " << name_ << " crashed twice without restart";
  crashed_ = true;
  crashed_at_ = now;
  reachable_ = false;
  ++stats_.crashes;
  DropAllEntries();
}

void ProxyCache::Restart(SimTime now) {
  WEBCC_CHECK(crashed_) << "cache " << name_ << " restarted without a crash";
  crashed_ = false;
  reachable_ = true;
  stats_.unavailable_seconds += (now - crashed_at_).seconds();
}

void ProxyCache::DropAllEntries() {
  table_.Clear();
  stored_bytes_ = 0;
}

void ProxyCache::PreloadObject(const WebObject& object, SimTime now) {
  const SlotId slot = table_.InsertFront(object.id);
  CacheEntry& entry = table_.entry(slot);
  stored_bytes_ += object.size_bytes;
  entry.type = object.type;
  entry.size_bytes = object.size_bytes;
  entry.version = object.version;
  entry.last_modified = object.last_modified;
  entry.fetched_at = now;
  FetchInfo info;
  info.last_modified = object.last_modified;
  policy_->OnFetch(entry, now, info);
  table_.SyncHotColumns(slot);
  if (uses_server_invalidation_) {
    upstream_->SubscribeInvalidation(this, object.id);
  }
  EnforceCapacity();
}

void ProxyCache::Preload(const ObjectStore& store, SimTime now) {
  for (const WebObject& object : store.objects()) {
    PreloadObject(object, now);
  }
}

void ProxyCache::ForEachEntry(const std::function<void(const CacheEntry&)>& fn) const {
  for (SlotId slot = table_.MruFront(); slot != EntryTable::kNoSlot;
       slot = table_.NextOlder(slot)) {
    fn(table_.entry(slot));
  }
}

std::vector<CacheEntry> ProxyCache::SnapshotEntries() const {
  std::vector<CacheEntry> entries;
  entries.reserve(table_.size());
  for (SlotId slot = table_.MruFront(); slot != EntryTable::kNoSlot;
       slot = table_.NextOlder(slot)) {
    entries.push_back(table_.entry(slot));
  }
  return entries;
}

void ProxyCache::RestoreEntry(const CacheEntry& entry) {
  // restored entries queue behind live ones; InsertBack doubles as the
  // "object must not already be cached" probe
  const SlotId slot = table_.InsertBack(entry.object);
  table_.entry(slot) = entry;
  table_.SyncHotColumns(slot);
  stored_bytes_ += entry.size_bytes;
  EnforceCapacity();
}

bool ProxyCache::DeliverInvalidation(ObjectId id, SimTime now) {
  if (!reachable_) {
    ++stats_.invalidations_dropped;
    return false;
  }
  ++stats_.invalidations_received;
  stats_.bytes_from_upstream += ControlWireBytes();
  const SlotId slot = table_.Find(id);
  if (slot != EntryTable::kNoSlot) {
    table_.SetValid(slot, false);
  }
  ForwardInvalidation(id, now);
  return true;
}

void ProxyCache::ForwardInvalidation(ObjectId id, SimTime now) {
  const auto it = child_subs_.find(id);
  if (it == child_subs_.end()) {
    return;
  }
  for (InvalidationSink* child : it->second) {
    ++child_invalidations_sent_;
    if (child->DeliverInvalidation(id, now)) {
      ++child_invalidations_delivered_;
    } else {
      // The child (or its link) could not accept the notice. With
      // redelivery armed, park it and retry — the origin's queue machinery
      // one level down; otherwise it is dropped and the child re-learns on
      // its next contact, the pre-fault semantics.
      ++child_invalidations_dropped_;
      if (child_redelivery_engine_ != nullptr) {
        QueueChildInvalidation(child, id);
      }
    }
  }
}

void ProxyCache::ArmChildRedelivery(SimEngine* engine, SimDuration retry_interval) {
  WEBCC_CHECK(engine != nullptr);
  child_redelivery_engine_ = engine;
  child_retry_interval_ = retry_interval;
}

ProxyCache::ChildQueue& ProxyCache::QueueFor(InvalidationSink* child) {
  for (ChildQueue& queue : child_pending_) {
    if (queue.child == child) {
      return queue;
    }
  }
  child_pending_.emplace_back();
  child_pending_.back().child = child;
  return child_pending_.back();
}

void ProxyCache::QueueChildInvalidation(InvalidationSink* child, ObjectId id) {
  ChildQueue& queue = QueueFor(child);
  if (id >= queue.queued.size()) {
    queue.queued.resize(id + 1, false);
  }
  if (queue.queued[id]) {
    return;  // a notice for this object is already parked for this child
  }
  queue.queued[id] = true;
  queue.ids.push_back(id);
  ++child_invalidations_queued_;
  ArmChildFlushTimer();
}

void ProxyCache::ArmChildFlushTimer() {
  if (child_redelivery_engine_ == nullptr || child_flush_timer_armed_) {
    return;
  }
  child_flush_timer_armed_ = true;
  child_redelivery_engine_->ScheduleAfter(child_retry_interval_, [this] {
    child_flush_timer_armed_ = false;
    if (!crashed_) {  // a dead parent runs no timers; re-arm below
      const SimTime now = child_redelivery_engine_->Now();
      for (ChildQueue& queue : child_pending_) {
        FlushChildQueue(queue, now);
      }
    }
    if (PendingChildInvalidations() > 0) {
      ArmChildFlushTimer();  // something still stuck; keep trying
    }
  });
}

void ProxyCache::FlushChildQueue(ChildQueue& queue, SimTime now) {
  std::vector<ObjectId> batch;
  batch.swap(queue.ids);
  for (const ObjectId id : batch) {
    queue.queued[id] = false;
  }
  for (const ObjectId id : batch) {
    // Skip notices the child no longer cares about (it dropped the object
    // or unsubscribed while the notice was parked).
    const auto it = child_subs_.find(id);
    if (it == child_subs_.end() ||
        std::find(it->second.begin(), it->second.end(), queue.child) == it->second.end()) {
      continue;
    }
    ++child_invalidations_sent_;
    if (queue.child->DeliverInvalidation(id, now)) {
      ++child_invalidations_delivered_;
      ++child_invalidations_redelivered_;
    } else {
      ++child_invalidations_dropped_;
      QueueChildInvalidation(queue.child, id);
    }
  }
}

void ProxyCache::NoteChildContact(InvalidationSink* child, SimTime now) {
  for (ChildQueue& queue : child_pending_) {
    if (queue.child == child) {
      FlushChildQueue(queue, now);
      return;
    }
  }
}

size_t ProxyCache::PendingChildInvalidations() const {
  size_t total = 0;
  for (const ChildQueue& queue : child_pending_) {
    total += queue.ids.size();
  }
  return total;
}

Upstream::FullReply ProxyCache::FetchFull(ObjectId id, SimTime now) {
  // A child's request is a request to this cache: serve it through the
  // normal path (which refreshes our copy as our policy dictates), then hand
  // the child whatever body we now hold.
  const CacheEntry* entry = nullptr;
  const ServeResult inner = HandleRequest(id, now, &entry);
  FullReply reply;
  if (inner.kind == ServeKind::kFailed) {
    reply.ok = false;  // a dead or cut-off parent fails the child's fetch
    return reply;
  }
  WEBCC_CHECK(entry != nullptr);
  reply.body_bytes = entry->size_bytes;
  reply.version = entry->version;
  reply.last_modified = entry->last_modified;
  reply.upstream_hops = inner.hops;
  return reply;
}

Upstream::CondReply ProxyCache::FetchIfModified(ObjectId id, uint64_t held_version,
                                                SimTime now) {
  const CacheEntry* entry = nullptr;
  const ServeResult inner = HandleRequest(id, now, &entry);
  CondReply reply;
  if (inner.kind == ServeKind::kFailed) {
    reply.ok = false;
    return reply;
  }
  WEBCC_CHECK(entry != nullptr);
  reply.upstream_hops = inner.hops;
  reply.version = entry->version;
  reply.last_modified = entry->last_modified;
  if (entry->version == held_version) {
    reply.modified = false;
    return reply;
  }
  reply.modified = true;
  reply.body_bytes = entry->size_bytes;
  return reply;
}

void ProxyCache::SubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  auto& sinks = child_subs_[id];
  if (std::find(sinks.begin(), sinks.end(), sink) == sinks.end()) {
    sinks.push_back(sink);
  }
  // A parent can only relay changes it hears about itself.
  if (uses_server_invalidation_) {
    upstream_->SubscribeInvalidation(this, id);
  }
}

void ProxyCache::UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) {
  const auto it = child_subs_.find(id);
  if (it == child_subs_.end()) {
    return;
  }
  auto& sinks = it->second;
  sinks.erase(std::remove(sinks.begin(), sinks.end(), sink), sinks.end());
  if (sinks.empty()) {
    child_subs_.erase(it);
  }
}

}  // namespace webcc
