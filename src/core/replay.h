// The replay kernel (paper §3). Every simulator here is one walk of a
// workload's modification stream against its request stream: the three
// simulator generations differ only in configuration, and Figure 1's
// hierarchy and the §1 fleet only in which caches a request reaches. So
// RunSimulation, RunHierarchySimulation and each fleet member build a world
// and hand it to Replay(), which walks it in one of two orders.
//
// Time order, the reference walk, serves any world:
//
//   * Each modification burst is applied before any request at the same
//     instant: a modification at time t is visible to a request at time t.
//   * A request reaches the leaf cache its route names, or none.
//   * A world with an engine runs it up to each burst and request first,
//     schedules every cache's crash/restart events on it, and drains it to
//     ReplayHorizon() at the end. A fault-free world has no engine, and the
//     walk does no engine work at all.
//   * Statistics reset before the first event (preload is not consistency
//     traffic) and again at the first request at or after the warm-up.
//   * The chaos snapshot-crash hook and each leaf's observer count that
//     leaf's own serves.
//
// Object order serves separable worlds only: no engine, one cache behind a
// one-entry route, no observer, no warm-up and no crash hook, over a cache
// whose policy keeps its state per entry and whose size is unbounded
// (RunSimulation's positive list, simulation.h). There no object's history
// touches another's and every statistic is a sum or maximum over objects,
// so the walk takes the objects one at a time from an ObjectIndex. Within
// an object it keeps time order: each modification at or before a request
// is applied first, and the object's trailing modifications come last. It
// makes the same ModifyObject calls as the time-ordered walk and keeps each
// object's cache entry, version and subscription hot for its whole
// history. Between two of an object's modifications nothing changes the
// origin copy, so after each HandleRequest the walk books the run of fresh
// hits that follows in bulk (ProxyCache::ServeFreshRun), with the results
// of one HandleRequest per request.

#ifndef WEBCC_SRC_CORE_REPLAY_H_
#define WEBCC_SRC_CORE_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cache/proxy_cache.h"
#include "src/sim/fault_plan.h"
#include "src/workload/workload.h"

namespace webcc {

class SimEngine;

// One served request as a SimObserver sees it: the serve verdict plus a
// copy of the cache entry's state immediately after the serve.
struct ServeObservation {
  uint64_t request_index = 0;  // the serving leaf's own replay index
  ObjectId object = 0;
  SimTime at;
  ServeResult result;
  bool has_entry = false;  // false when nothing is cached afterwards
  CacheEntry entry;        // meaningful only when has_entry
};

// Model-based-checking hooks (the chaos oracle, src/chaos/). Replay reports
// every applied modification and each of the observed leaf's serves in
// replay order; OnRunEnd fires once after trailing events drain, immediately
// before the run's statistics are collected. Hooks may throw — the chaos
// oracle throws OracleViolation — and the exception propagates out of the
// simulator.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  // Fires once per run after preload and the stats reset, before the first
  // workload event — the hook that lets an observer probe live world state
  // (e.g. the server's subscription count) from later callbacks. The
  // references stay valid until OnRunEnd returns.
  virtual void OnRunStart(const ProxyCache& cache, const OriginServer& server) {
    (void)cache;
    (void)server;
  }
  virtual void OnModification(ObjectId object, SimTime at) {
    (void)object;
    (void)at;
  }
  virtual void OnServe(const ServeObservation& observation) { (void)observation; }
  virtual void OnRunEnd(const ProxyCache& cache, const OriginServer& server) {
    (void)cache;
    (void)server;
  }
};

// One cache of a replayed world.
struct ReplayCache {
  ProxyCache* cache = nullptr;
  // The cache's link config: how its crashes recover and, for a leaf, the
  // snapshot_crash_request index, counted in the leaf's own serves. Null
  // means no faults.
  const FaultConfig* faults = nullptr;
  // Engine worlds: the link's plan, whose crash/restart events Replay puts
  // on the engine. Null schedules none.
  const FaultPlan* plan = nullptr;
  // After a restart the cache contacts upstream, which re-drives the
  // notices queued for it meanwhile: this parent cache, for the notices it
  // parked on `parent_link`, or the origin when there is no parent.
  ProxyCache* parent = nullptr;
  InvalidationSink* parent_link = nullptr;
  // Observer of every modification and of this leaf's serves. May be null.
  SimObserver* observer = nullptr;
};

// A workload's events grouped by object, the input of object-order replay:
// each object's request times and its modifications, both in schedule order
// (co-timed modifications of one object keep theirs). Built by a stable
// counting sort in O(objects + requests + modifications). Immutable once
// built, so a sweep grid's threads share one.
class ObjectIndex {
 public:
  explicit ObjectIndex(const Workload& load);

  size_t objects() const { return request_begin_.size() - 1; }
  size_t requests() const { return request_times_.size(); }
  size_t modifications() const { return modifications_.size(); }

  std::span<const SimTime> RequestTimes(size_t object) const {
    return std::span<const SimTime>(request_times_)
        .subspan(request_begin_[object], request_begin_[object + 1] - request_begin_[object]);
  }
  std::span<const ModificationEvent> Modifications(size_t object) const {
    return std::span<const ModificationEvent>(modifications_)
        .subspan(modification_begin_[object],
                 modification_begin_[object + 1] - modification_begin_[object]);
  }

 private:
  // objects() + 1 offsets each: object o's events are [begin[o], begin[o + 1]).
  std::vector<size_t> request_begin_;
  std::vector<SimTime> request_times_;
  std::vector<size_t> modification_begin_;
  std::vector<ModificationEvent> modifications_;
};

// A route entry that sends a request to no cache.
inline constexpr int32_t kNoLeaf = -1;

// A world to replay. The caller builds and preloads the caches; everything
// pointed to must outlive Replay(), and the engine must not run after it.
struct ReplayWorld {
  OriginServer* server = nullptr;
  // Null for a fault-free world.
  SimEngine* engine = nullptr;
  // Every cache of the world. Stats resets cover all of them, and their
  // crash schedules go on the engine in this order.
  std::vector<ReplayCache> caches = {};
  // Request r goes to caches[route[r.client_id % route.size()]], or to no
  // cache where that entry is kNoLeaf.
  std::vector<int32_t> route = {0};
  std::span<const RequestEvent> requests = {};
  std::span<const ModificationEvent> modifications = {};
  // Statistics reset again at the first request at or after epoch + warmup.
  SimDuration warmup = SimDuration(0);
  // Null walks in time order. Otherwise the index of the workload behind
  // `requests` and `modifications`, which Replay walks in object order,
  // booking fresh runs in bulk; the world must then be separable (the file
  // comment), and Replay checks the part of that the world shows.
  const ObjectIndex* by_object = nullptr;
};

// The later of the last request the world routes to a cache and its last
// modification, plus 24 h of slack so trailing redelivery timers and
// restarts drain. Fault plans cut their windows off here, and an engine
// world runs until it.
SimTime ReplayHorizon(const ReplayWorld& world);

// Walks `world` in the order it asks for, as the file comment describes.
// Deterministic: equal worlds, equal walks.
void Replay(const ReplayWorld& world);

// Creates every object of `load` on the origin at its initial age. Object
// ids are dense and assigned in creation order, so a request's or
// modification's object_index doubles as the ObjectId.
void CreateWorkloadObjects(const Workload& load, OriginServer& server);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_REPLAY_H_
