#include "src/core/replay.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>

#include "src/cache/snapshot.h"
#include "src/origin/server.h"
#include "src/sim/engine.h"
#include "src/util/check.h"

namespace webcc {

namespace {

// The route entry for `req`. Power-of-two routes (the tree's two leaves,
// fleets of 2^k members) need no division.
int32_t RouteOf(std::span<const int32_t> route, const RequestEvent& req) {
  const size_t n = route.size();
  return route[(n & (n - 1)) == 0 ? req.client_id & (n - 1) : req.client_id % n];
}

// Stable counting sort of `events` by object_index: `begin` gets the
// objects + 1 group offsets, `out` each event's projection in group order.
template <typename Event, typename Value, typename Project>
void GroupByObject(const std::vector<Event>& events, size_t objects, Project project,
                   std::vector<size_t>& begin, std::vector<Value>& out) {
  begin.assign(objects + 1, 0);
  for (const Event& event : events) {
    WEBCC_CHECK_LT(event.object_index, objects) << "event names no object";
    ++begin[event.object_index + 1];
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  out.resize(events.size());
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  for (const Event& event : events) {
    out[next[event.object_index]++] = project(event);
  }
}

// One cache of the world and the walk's state for it.
struct CacheState : ReplayCache {
  // How a crash of this cache recovers: the link's CrashRecovery mapped
  // onto the snapshot modes, kAuto resolved against the policy in use (§6:
  // invalidation-protocol recovery must be conservative — the server forgot
  // nothing, but the cache cannot know which notices it missed).
  SnapshotRecovery recovery = SnapshotRecovery::kTrustSnapshot;
  bool cold_start = false;
  int64_t snapshot_crash_request = -1;
  uint64_t served = 0;  // the leaf's own replay index
  // Stands in for the on-disk metadata file across a scheduled crash:
  // captured at crash time (a perfectly synced disk), never written in
  // cold-start mode (the disk died with the process).
  std::string disk_image = {};
};

class Walk {
 public:
  explicit Walk(const ReplayWorld& world) : world_(world) {
    WEBCC_CHECK(!world.route.empty()) << "a replay route needs at least one entry";
    for (const int32_t leaf : world.route) {
      WEBCC_CHECK(leaf == kNoLeaf || static_cast<size_t>(leaf) < world.caches.size())
          << "route entry " << leaf << " names no cache";
    }
    states_.reserve(world.caches.size());
    for (const ReplayCache& spec : world.caches) {
      CacheState& state = states_.emplace_back(spec);
      if (spec.faults == nullptr) {
        continue;
      }
      state.snapshot_crash_request = spec.faults->snapshot_crash_request;
      const CrashRecovery mode = spec.faults->crash_recovery;
      if (mode == CrashRecovery::kRevalidateAll ||
          (mode == CrashRecovery::kAuto && spec.cache->policy().UsesServerInvalidation())) {
        state.recovery = SnapshotRecovery::kRevalidateAll;
      }
      state.cold_start = mode == CrashRecovery::kColdStart;
    }
  }

  void Run() {
    SimEngine* const engine = world_.engine;
    ResetStats();
    for (const CacheState& state : states_) {
      if (state.observer != nullptr) {
        state.observer->OnRunStart(*state.cache, *world_.server);
      }
    }
    if (engine != nullptr) {
      for (CacheState& state : states_) {
        ScheduleCrashes(state);
      }
    }

    if (world_.by_object != nullptr) {
      ServeByObject(*world_.by_object);
    } else {
      // A one-entry route sends every request to the same cache, so that
      // loop skips the per-request routing.
      const size_t next_mod =
          world_.route.size() == 1 ? ServeRequests<false>() : ServeRequests<true>();
      // Trailing modifications (after the last request) still cost
      // invalidation traffic under the invalidation protocol.
      if (next_mod < world_.modifications.size()) {
        ApplyBursts(next_mod, world_.modifications.back().at);
      }
    }
    if (engine != nullptr) {
      // Drain trailing redelivery timers and restarts. Bounded by the
      // horizon: a flush timer for a permanently dark cache reschedules
      // forever and must not spin the run loop.
      engine->RunUntil(ReplayHorizon(world_));
    }
    for (const CacheState& state : states_) {
      if (state.observer != nullptr) {
        state.observer->OnRunEnd(*state.cache, *world_.server);
      }
    }
  }

 private:
  // Serves every routed request in time order, each after the
  // modifications up to it, and returns the index of the first modification
  // still unapplied. The loop keeps what it reads per request in locals,
  // which the opaque calls in it cannot invalidate.
  template <bool kRouted>
  size_t ServeRequests() {
    SimEngine* const engine = world_.engine;
    const std::span<const int32_t> route = world_.route;
    const int32_t only_leaf = route[0];
    CacheState* const states = states_.data();
    const std::span<const ModificationEvent> mods = world_.modifications;
    size_t next_mod = 0;
    const SimTime warmup_end = SimTime::Epoch() + world_.warmup;
    bool measuring = world_.warmup.seconds() == 0;
    for (const RequestEvent& req : world_.requests) {
      const int32_t leaf = kRouted ? RouteOf(route, req) : only_leaf;
      if (leaf == kNoLeaf) {
        continue;
      }
      if (next_mod < mods.size() && mods[next_mod].at <= req.at) {
        next_mod = ApplyBursts(next_mod, req.at);
      }
      if (engine != nullptr) {
        engine->RunUntil(req.at);
      }
      if (!measuring && req.at >= warmup_end) {
        ResetStats();
        measuring = true;
      }
      Serve(states[leaf], req);
    }
    return next_mod;
  }

  // Object order (replay.h): every object's history in turn, each
  // modification at or before a request applied first and the trailing ones
  // last. A separable world has nothing else to do per event: no engine, no
  // warm-up, no observer and no crash hook.
  void ServeByObject(const ObjectIndex& index) {
    WEBCC_CHECK(world_.engine == nullptr && world_.warmup.seconds() == 0 &&
                world_.route.size() == 1 && world_.route[0] == 0 && states_.size() == 1 &&
                states_[0].observer == nullptr && states_[0].snapshot_crash_request < 0 &&
                states_[0].cache->config().capacity_bytes == 0)
        << "object-order replay needs a separable world";
    WEBCC_CHECK(index.objects() == world_.server->store().size() &&
                index.requests() == world_.requests.size() &&
                index.modifications() == world_.modifications.size())
        << "the object index is not of this world's workload";
    OriginServer& server = *world_.server;
    ProxyCache& cache = *states_[0].cache;
    for (size_t o = 0; o < index.objects(); ++o) {
      const auto object = static_cast<ObjectId>(o);
      const std::span<const ModificationEvent> mods = index.Modifications(o);
      auto mod = mods.begin();
      for (const SimTime at : index.RequestTimes(o)) {
        for (; mod != mods.end() && mod->at <= at; ++mod) {
          server.ModifyObject(object, mod->at, mod->new_size);
        }
        cache.HandleRequest(object, at);
      }
      for (; mod != mods.end(); ++mod) {
        server.ModifyObject(object, mod->at, mod->new_size);
      }
    }
  }

  void ResetStats() {
    world_.server->ResetStats();
    for (const CacheState& state : states_) {
      state.cache->ResetStats();
    }
  }

  // Applies the modifications from index `next` through time `until` and
  // returns the index after them. Trace-compiled and campus workloads
  // cluster changes into co-timed bursts: the engine runs up to a burst
  // once, then its members apply in schedule order.
  size_t ApplyBursts(size_t next, SimTime until) {
    const size_t end = world_.modifications.size();
    while (next < end && world_.modifications[next].at <= until) {
      const SimTime at = world_.modifications[next].at;
      if (world_.engine != nullptr) {
        world_.engine->RunUntil(at);
      }
      do {
        const ModificationEvent& m = world_.modifications[next];
        world_.server->ModifyObject(m.object_index, at, m.new_size);
        for (const CacheState& state : states_) {
          if (state.observer != nullptr) {
            state.observer->OnModification(static_cast<ObjectId>(m.object_index), at);
          }
        }
        ++next;
      } while (next < end && world_.modifications[next].at == at);
    }
    return next;
  }

  void Serve(CacheState& leaf, const RequestEvent& req) {
    const auto object = static_cast<ObjectId>(req.object_index);
    // The chaos harness's arbitrary-index crash hook: an instantaneous
    // snapshot->crash->restore cycle right before this serve. Skipped while
    // a scheduled outage already has the cache dark — a dead process cannot
    // crash again.
    if (static_cast<int64_t>(leaf.served) == leaf.snapshot_crash_request &&
        !leaf.cache->crashed()) {
      SnapshotCrashCycle(*leaf.cache, req.at, leaf.recovery, leaf.cold_start);
      ContactUpstream(leaf, req.at);
    }
    const CacheEntry* entry = nullptr;
    const ServeResult served = leaf.cache->HandleRequest(object, req.at, &entry);
    if (leaf.observer != nullptr) {
      ServeObservation observation;
      observation.request_index = leaf.served;
      observation.object = object;
      observation.at = req.at;
      observation.result = served;
      if (entry != nullptr) {
        observation.has_entry = true;
        observation.entry = *entry;
      }
      leaf.observer->OnServe(observation);
    }
    ++leaf.served;
  }

  // First contact after a restart: upstream re-drives whatever
  // invalidations it queued for the cache meanwhile.
  void ContactUpstream(const CacheState& state, SimTime at) {
    if (state.parent != nullptr) {
      state.parent->NoteChildContact(state.parent_link, at);
      return;
    }
    const CacheId id = world_.server->IdOf(state.cache);
    if (id != kInvalidCacheId) {
      world_.server->NoteCacheContact(id, at);
    }
  }

  // Puts the cache's crash/restart schedule on the engine: each crash,
  // then its restart.
  void ScheduleCrashes(CacheState& state) {
    if (state.plan == nullptr) {
      return;
    }
    SimEngine& engine = *world_.engine;
    for (const CacheCrashEvent& crash : state.plan->cache_crashes()) {
      engine.ScheduleAt(crash.at, [&engine, &state] {
        if (!state.cold_start) {
          std::ostringstream os;
          SaveCacheSnapshot(*state.cache, os);
          state.disk_image = os.str();
        }
        state.cache->Crash(engine.Now());
      });
      engine.ScheduleAt(crash.at + crash.outage, [this, &engine, &state] {
        state.cache->Restart(engine.Now());
        if (!state.disk_image.empty()) {
          std::istringstream is(state.disk_image);
          const int64_t restored = LoadCacheSnapshot(*state.cache, is, state.recovery);
          WEBCC_CHECK_GE(restored, 0) << "crash-time snapshot must reload";
          state.disk_image.clear();
        }
        ContactUpstream(state, engine.Now());
      });
    }
  }

  const ReplayWorld& world_;
  std::vector<CacheState> states_;
};

}  // namespace

ObjectIndex::ObjectIndex(const Workload& load) {
  const size_t objects = load.objects.size();
  GroupByObject(load.requests, objects, [](const RequestEvent& req) { return req.at; },
                request_begin_, request_times_);
  GroupByObject(load.modifications, objects, [](const ModificationEvent& m) { return m; },
                modification_begin_, modifications_);
}

SimTime ReplayHorizon(const ReplayWorld& world) {
  WEBCC_CHECK(!world.route.empty()) << "a replay route needs at least one entry";
  SimTime horizon = SimTime::Epoch();
  const auto last = std::find_if(
      world.requests.rbegin(), world.requests.rend(),
      [&world](const RequestEvent& req) { return RouteOf(world.route, req) != kNoLeaf; });
  if (last != world.requests.rend()) {
    horizon = std::max(horizon, last->at);
  }
  if (!world.modifications.empty()) {
    horizon = std::max(horizon, world.modifications.back().at);
  }
  return horizon + Hours(24);
}

void Replay(const ReplayWorld& world) { Walk(world).Run(); }

void CreateWorkloadObjects(const Workload& load, OriginServer& server) {
  for (const ObjectSpec& spec : load.objects) {
    server.store().Create(spec.name, spec.type, spec.size_bytes,
                          SimTime::Epoch() - spec.initial_age);
  }
}

}  // namespace webcc
