// Micro-benchmarks (google-benchmark) for the hot paths: event queue
// throughput, proxy-cache request handling per policy, workload generation,
// and trace compilation. These guard the simulator's performance envelope —
// a full 1.7M-request figure run must stay in the ~0.1 s range.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/cache/entry_table.h"
#include "src/cache/origin_upstream.h"
#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/cache/reference_store.h"
#include "src/core/simulation.h"
#include "src/sim/engine.h"
#include "src/util/str.h"
#include "src/workload/campus.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"

// Global allocation tally, fed by the replacement operator new below. Used
// to report allocs/op and bytes/op custom counters on the hot-path
// benchmarks, so allocation regressions (e.g. reintroducing per-event
// shared_ptr state in the event queue) show up in the numbers, not just in
// ns/op noise.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace webcc {
namespace {

// Scoped sampler: charges all allocations between Start() and Stop() to the
// benchmark as per-item custom counters.
class AllocCounters {
 public:
  void Start() {
    count_before_ = g_alloc_count.load(std::memory_order_relaxed);
    bytes_before_ = g_alloc_bytes.load(std::memory_order_relaxed);
  }
  void Report(benchmark::State& state, int64_t items) {
    const double n = items > 0 ? static_cast<double>(items) : 1.0;
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) - count_before_) / n);
    state.counters["bytes/op"] = benchmark::Counter(
        static_cast<double>(g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before_) / n);
  }

 private:
  uint64_t count_before_ = 0;
  uint64_t bytes_before_ = 0;
};

void BM_EventQueueScheduleAndDrain(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  AllocCounters allocs;
  allocs.Start();
  for (auto _ : state) {
    EventQueue queue;
    for (int64_t i = 0; i < n; ++i) {
      queue.Schedule(SimTime(rng.UniformInt(0, 1'000'000)), [] {});
    }
    while (auto fired = queue.PopNext()) {
      benchmark::DoNotOptimize(fired->time);
    }
  }
  const int64_t events = state.iterations() * n;
  state.SetItemsProcessed(events);
  allocs.Report(state, events);
}
BENCHMARK(BM_EventQueueScheduleAndDrain)->Arg(1000)->Arg(100000);

void BM_EngineSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    SimEngine engine;
    int64_t remaining = state.range(0);
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        engine.ScheduleAfter(Seconds(1), tick);
      }
    };
    engine.ScheduleAfter(Seconds(1), tick);
    engine.Run();
    benchmark::DoNotOptimize(engine.Now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineSelfScheduling)->Arg(100000);

// One cache request per iteration, against a warm cache (the simulator's
// innermost loop).
void BM_CacheHandleRequest(benchmark::State& state, PolicyConfig policy) {
  OriginServer server;
  constexpr int kObjects = 1000;
  for (int i = 0; i < kObjects; ++i) {
    server.store().Create(StrFormat("/o%d", i), FileType::kGif, 6000,
                          SimTime::Epoch() - Days(30));
  }
  OriginUpstream upstream(&server);
  ProxyCache cache("bench", &upstream, MakePolicy(policy), CacheConfig{}, &server.store());
  cache.Preload(server.store(), SimTime::Epoch());
  Rng rng(7);
  SimTime now = SimTime::Epoch();
  AllocCounters allocs;
  allocs.Start();
  for (auto _ : state) {
    now += Seconds(1);
    const auto id = static_cast<ObjectId>(rng.UniformInt(0, kObjects - 1));
    benchmark::DoNotOptimize(cache.HandleRequest(id, now));
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state, state.iterations());
}
BENCHMARK_CAPTURE(BM_CacheHandleRequest, ttl, PolicyConfig::Ttl(Hours(24)));
BENCHMARK_CAPTURE(BM_CacheHandleRequest, alex, PolicyConfig::Alex(0.10));
BENCHMARK_CAPTURE(BM_CacheHandleRequest, invalidation, PolicyConfig::Invalidation());
BENCHMARK_CAPTURE(BM_CacheHandleRequest, adaptive, PolicyConfig::Adaptive());

// --- ProxyCache storage-layer benchmarks ---
//
// The same operation sequence driven through both storage layouts: the
// columnar EntryTable that now backs ProxyCache, and the pre-columnar
// map+list ReferenceEntryStore (reference_store.h). Keeping the old layout
// benchmarked here means the before/after numbers in docs/PERFORMANCE.md
// regenerate on current hardware instead of fossilizing.

enum class StoreKind { kColumnar, kMapList };

// Warm-store hit path: index probe + LRU touch + freshness check, the
// per-request work every fresh hit pays. Expect 0 allocs/op for the
// columnar store; the map+list layout reallocates a list node per touch.
void BM_ProxyCacheLookup(benchmark::State& state, StoreKind kind) {
  constexpr int kStoreObjects = 4096;
  const SimTime expires = SimTime::Epoch() + Days(365);
  const SimTime now = SimTime::Epoch() + Hours(1);
  EntryTable table;
  ReferenceEntryStore ref;
  for (int i = 0; i < kStoreObjects; ++i) {
    if (kind == StoreKind::kColumnar) {
      const EntryTable::SlotId slot = table.InsertFront(static_cast<ObjectId>(i));
      CacheEntry& entry = table.entry(slot);
      entry.size_bytes = 6000;
      entry.expires_at = expires;
      table.SyncHotColumns(slot);
    } else {
      CacheEntry& entry = ref.InsertFront(static_cast<ObjectId>(i));
      entry.size_bytes = 6000;
      entry.expires_at = expires;
    }
  }
  Rng rng(11);
  AllocCounters allocs;
  allocs.Start();
  if (kind == StoreKind::kColumnar) {
    for (auto _ : state) {
      const auto id = static_cast<ObjectId>(rng.UniformInt(0, kStoreObjects - 1));
      const EntryTable::SlotId slot = table.Find(id);
      table.TouchFront(slot);
      benchmark::DoNotOptimize(table.FreshTimeBased(slot, now));
    }
  } else {
    for (auto _ : state) {
      const auto id = static_cast<ObjectId>(rng.UniformInt(0, kStoreObjects - 1));
      const CacheEntry* entry = ref.Find(id);
      ref.TouchFront(id);
      benchmark::DoNotOptimize(entry->valid && now < entry->expires_at);
    }
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state, state.iterations());
}
BENCHMARK_CAPTURE(BM_ProxyCacheLookup, columnar, StoreKind::kColumnar);
BENCHMARK_CAPTURE(BM_ProxyCacheLookup, maplist, StoreKind::kMapList);

// Capacity-pressure cycle: touch a resident entry to the front, evict the
// LRU tail, install a fresh object — the EnforceCapacity churn a full cache
// runs on every miss.
void BM_ProxyCacheTouchEvict(benchmark::State& state, StoreKind kind) {
  constexpr int kWorkingSet = 1024;
  const SimTime expires = SimTime::Epoch() + Days(365);
  EntryTable table;
  ReferenceEntryStore ref;
  ObjectId next_id = 0;
  const auto install = [&](ObjectId id) {
    if (kind == StoreKind::kColumnar) {
      const EntryTable::SlotId slot = table.InsertFront(id);
      CacheEntry& entry = table.entry(slot);
      entry.size_bytes = 6000;
      entry.expires_at = expires;
      table.SyncHotColumns(slot);
    } else {
      CacheEntry& entry = ref.InsertFront(id);
      entry.size_bytes = 6000;
      entry.expires_at = expires;
    }
  };
  for (; next_id < kWorkingSet; ++next_id) {
    install(next_id);
  }
  AllocCounters allocs;
  allocs.Start();
  for (auto _ : state) {
    // Rescue the LRU tail to the front (the longest splice/relink either
    // layout can do), then evict the new tail and install a fresh object.
    if (kind == StoreKind::kColumnar) {
      table.TouchFront(table.LruBack());
      table.Erase(table.LruBack());
    } else {
      ref.TouchFront(ref.LruBack());
      ref.Erase(ref.LruBack());
    }
    install(next_id++);
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state, state.iterations());
}
BENCHMARK_CAPTURE(BM_ProxyCacheTouchEvict, columnar, StoreKind::kColumnar);
BENCHMARK_CAPTURE(BM_ProxyCacheTouchEvict, maplist, StoreKind::kMapList);

// Batched expiry scan over the whole store (one op = one full sweep of
// kStoreObjects entries; ns/op scales with store size). The columnar sweep
// reads two flat columns; the reference walks the LRU list and dereferences
// every map node.
void BM_ProxyCacheSweepExpired(benchmark::State& state, StoreKind kind) {
  constexpr int kStoreObjects = 4096;
  EntryTable table;
  ReferenceEntryStore ref;
  for (int i = 0; i < kStoreObjects; ++i) {
    // Half the entries are long expired, half far in the future.
    const SimTime expires =
        i % 2 == 0 ? SimTime::Epoch() + Seconds(1) : SimTime::Epoch() + Days(365);
    if (kind == StoreKind::kColumnar) {
      const EntryTable::SlotId slot = table.InsertFront(static_cast<ObjectId>(i));
      table.entry(slot).expires_at = expires;
      table.SyncHotColumns(slot);
    } else {
      ref.InsertFront(static_cast<ObjectId>(i)).expires_at = expires;
    }
  }
  SimTime now = SimTime::Epoch() + Hours(1);
  for (auto _ : state) {
    now += Seconds(1);  // advancing keeps the compare honest, sweeps stay no-ops after the first
    if (kind == StoreKind::kColumnar) {
      benchmark::DoNotOptimize(table.SweepExpired(now));
    } else {
      benchmark::DoNotOptimize(ref.SweepExpired(now));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ProxyCacheSweepExpired, columnar, StoreKind::kColumnar);
BENCHMARK_CAPTURE(BM_ProxyCacheSweepExpired, maplist, StoreKind::kMapList);

void BM_WorrellGeneration(benchmark::State& state) {
  for (auto _ : state) {
    WorrellConfig config;
    config.num_files = 500;
    config.duration = Days(14);
    config.requests_per_second = 0.2;
    benchmark::DoNotOptimize(GenerateWorrellWorkload(config));
  }
}
BENCHMARK(BM_WorrellGeneration);

void BM_TraceCompile(benchmark::State& state) {
  const auto gen = GenerateCampusWorkload(CampusServerProfile::Hcs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileTrace(gen.trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(gen.trace.records.size()));
}
BENCHMARK(BM_TraceCompile);

void BM_FullSimulationRun(benchmark::State& state) {
  WorrellConfig config;
  config.num_files = 500;
  config.duration = Days(14);
  config.requests_per_second = 0.2;
  const Workload load = GenerateWorrellWorkload(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Alex(0.10))));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(load.requests.size()));
}
BENCHMARK(BM_FullSimulationRun);

}  // namespace
}  // namespace webcc

BENCHMARK_MAIN();
