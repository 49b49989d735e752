// Ablations: the paper's side claims and workload assumptions, each varied
// along the axis the paper argues about but never plots.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <unordered_map>

#include "bench/figures.h"
#include "src/cache/adaptive_policy.h"
#include "src/cache/http_upstream.h"
#include "src/cache/origin_upstream.h"
#include "src/cache/snapshot.h"
#include "src/core/fleet.h"
#include "src/core/hierarchy.h"
#include "src/core/replay.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/str.h"
#include "src/workload/campus.h"
#include "src/workload/microsoft.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"

namespace webcc::bench {

namespace {

// A Microsoft-style week whose cgi share of requests is `cgi_share`, with
// per-type Poisson modification schedules (dynamic pages churn several times
// a day).
Workload BuildMixWorkload(double cgi_share, uint64_t seed) {
  MicrosoftMixConfig mix;
  mix.num_requests = 60000;
  mix.duration = Days(7);
  mix.uris_per_type = 200;
  mix.seed = seed;
  // Scale the static shares to make room for the requested cgi share.
  const double remaining = 1.0 - cgi_share;
  const double static_total = 0.55 + 0.22 + 0.10 + 0.04;
  mix.access_mix = {0.55 * remaining / static_total, 0.22 * remaining / static_total,
                    0.10 * remaining / static_total, cgi_share, 0.04 * remaining / static_total};
  const auto log = GenerateMicrosoftAccessLog(mix);

  Workload load;
  load.name = StrFormat("mix-cgi%.0f%%", cgi_share * 100);
  load.horizon = SimTime::Epoch() + mix.duration;
  Rng rng(seed ^ 0xd15c);
  std::unordered_map<std::string, uint32_t> index_of;
  auto mean_lifetime_s = [](FileType type) {
    switch (type) {
      case FileType::kGif:
        return 146.0 * 86400;
      case FileType::kHtml:
        return 50.0 * 86400;
      case FileType::kJpg:
        return 100.0 * 86400;
      case FileType::kCgi:
        return 0.25 * 86400;  // dynamic pages change several times a day
      case FileType::kOther:
        return 90.0 * 86400;
    }
    return 90.0 * 86400;
  };
  for (const AccessLogRecord& record : log) {
    auto [it, fresh] = index_of.try_emplace(record.uri,
                                            static_cast<uint32_t>(load.objects.size()));
    if (fresh) {
      ObjectSpec spec;
      spec.name = record.uri;
      spec.type = record.type;
      spec.size_bytes = record.size_bytes;
      const double mean = mean_lifetime_s(record.type);
      spec.initial_age = SecondsF(std::max(60.0, rng.Exponential(mean)));
      load.objects.push_back(std::move(spec));
      double t = rng.Exponential(mean);
      while (t < static_cast<double>(mix.duration.seconds())) {
        load.modifications.push_back(
            ModificationEvent{SimTime::Epoch() + SecondsF(t), it->second, -1});
        t += std::max(1.0, rng.Exponential(mean));
      }
    }
    RequestEvent req;
    req.at = record.at;
    req.object_index = it->second;
    req.client_id = static_cast<uint32_t>(rng.UniformInt(0, 999));
    load.requests.push_back(req);
  }
  load.Finalize();
  return load;
}

// Replays `requests` and `modifications` through a world of `server` and
// its one `cache`.
void ReplayOneCache(OriginServer& server, ProxyCache& cache,
                    std::span<const RequestEvent> requests,
                    std::span<const ModificationEvent> modifications) {
  Replay({.server = &server,
          .caches = {{.cache = &cache}},
          .requests = requests,
          .modifications = modifications});
}

// The prefix of `load`'s modifications at or before `t`.
std::span<const ModificationEvent> ModificationsThrough(const Workload& load, SimTime t) {
  const auto end = std::upper_bound(
      load.modifications.begin(), load.modifications.end(), t,
      [](SimTime at, const ModificationEvent& m) { return at < m.at; });
  return {load.modifications.begin(), end};
}

struct WireRun {
  CacheStats cache;
  int64_t model_bytes = 0;
  int64_t real_bytes = 0;
  uint64_t exchanges = 0;
};

WireRun RunBothAccountings(const Workload& load, PolicyConfig policy) {
  OriginServer server;
  CreateWorkloadObjects(load, server);
  HttpFrontend frontend(&server);
  HttpUpstream upstream(&frontend);
  ProxyCache cache("wire", &upstream, MakePolicy(policy), CacheConfig{}, &server.store());
  ReplayOneCache(server, cache, load.requests, load.modifications);
  WireRun run;
  run.cache = cache.stats();
  run.model_bytes = cache.stats().LinkBytes();  // 43-byte model
  run.real_bytes = upstream.RealTotalBytes();   // serialized HTTP/1.0
  run.exchanges = upstream.exchanges();
  return run;
}

// One restartable cache+origin session for the restart ablation.
struct Session {
  Session(const Workload& load, PolicyConfig policy)
      : cache("restartable", &upstream, MakePolicy(policy), CacheConfig{}, &server.store()) {
    CreateWorkloadObjects(load, server);
  }

  OriginServer server;
  OriginUpstream upstream{&server};
  ProxyCache cache;
};

}  // namespace

// §5 future-work ablation: the self-tuning adaptive policy.
//
// "We are investigating algorithms by which caches can be self-tuning, by
//  adjusting parameters based on the data type and the history of accesses
//  to items of that type."
//
// Compares AdaptiveTunerPolicy (per-file-type thresholds steered toward a 2%
// stale target using only cache-observable feedback) against fixed Alex
// thresholds and the invalidation protocol on the trace workloads, and
// prints the per-type thresholds the tuner converged to.
void AblationSelftuning(FigureContext& ctx) {
  std::printf("=== Ablation: self-tuning per-type thresholds (paper §5) ===\n\n");
  const std::vector<Workload>& loads = ctx.Traces();

  TextTable table;
  table.SetHeader({"Trace", "Policy", "Traffic (MB)", "Stale rate", "Server ops"});
  for (const Workload& load : loads) {
    struct Row {
      std::string name;
      PolicyConfig policy;
    };
    AdaptiveTunerPolicy::Options tuner;
    tuner.target_stale_rate = 0.02;
    tuner.adjust_every_serves = 100;
    for (const Row& row : {Row{"alex(5%)", PolicyConfig::Alex(0.05)},
                           Row{"alex(25%)", PolicyConfig::Alex(0.25)},
                           Row{"adaptive(target 2%)", PolicyConfig::Adaptive(tuner)},
                           Row{"invalidation", PolicyConfig::Invalidation()}}) {
      const auto result = RunSimulation(load, SimulationConfig::TraceDriven(row.policy));
      table.AddRow({load.name, row.name, StrFormat("%.3f", result.metrics.TotalMB()),
                    FormatPercent(result.metrics.StaleRate(), 3),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(result.metrics.server_operations))});
    }
  }
  ctx.Emit(table, "ablation_selftuning");

  // Show converged thresholds on the HCS trace (run once more, inspecting
  // the policy object directly).
  const Workload& load = loads[2];
  OriginServer server;
  CreateWorkloadObjects(load, server);
  OriginUpstream upstream(&server);
  AdaptiveTunerPolicy::Options options;
  options.adjust_every_serves = 100;
  auto policy = std::make_unique<AdaptiveTunerPolicy>(options);
  AdaptiveTunerPolicy* tuner = policy.get();
  ProxyCache cache("tuned", &upstream, std::move(policy), CacheConfig{}, &server.store());
  cache.Preload(server.store(), SimTime::Epoch());
  ReplayOneCache(server, cache, load.requests, load.modifications);
  std::printf("converged per-type thresholds on %s (started at %.0f%%):\n", load.name.c_str(),
              options.initial_threshold * 100.0);
  for (int t = 0; t < kNumFileTypes; ++t) {
    const auto type = static_cast<FileType>(t);
    const auto& state = tuner->StateFor(type);
    std::printf("  %-6s threshold=%5.1f%%  serves=%7llu  retro-stale=%llu  adjustments=%llu\n",
                std::string(FileTypeName(type)).c_str(), tuner->ThresholdFor(type) * 100.0,
                static_cast<unsigned long long>(state.total_serves),
                static_cast<unsigned long long>(state.stale_serves),
                static_cast<unsigned long long>(state.adjustments));
  }
}

// Ablation: how faithful is the paper's 43-byte control-message model?
//
// The paper accounts every control message (request line, IMS query, 304,
// invalidation notice) at its measured 1995 average of 43 bytes. This
// replays a workload twice — once through the typed upstream using the
// 43-byte model, once through real serialized HTTP/1.0 — and compares the
// totals, then re-derives the Figure 6 conclusion under inflated
// control-message sizes to show where it would break.
void AblationWireModel(FigureContext& ctx) {
  std::printf("=== Ablation: 43-byte control-message model vs real HTTP/1.0 wire ===\n\n");

  WorrellConfig config;
  config.num_files = 500;
  config.duration = Days(14);
  config.requests_per_second = 0.15;
  config.seed = 0x77;
  const Workload load = GenerateWorrellWorkload(config);

  TextTable table;
  table.SetHeader({"Policy", "exchanges", "model MB", "real-HTTP MB", "real/model",
                   "ctrl bytes/exchange (real)"});
  for (const auto& [name, policy] :
       std::vector<std::pair<const char*, PolicyConfig>>{
           {"ttl(48h)", PolicyConfig::Ttl(Hours(48))},
           {"alex(10%)", PolicyConfig::Alex(0.10)},
           {"alex(50%)", PolicyConfig::Alex(0.50)}}) {
    const WireRun run = RunBothAccountings(load, policy);
    const double per_exchange_real =
        static_cast<double>(run.real_bytes) / static_cast<double>(run.exchanges);
    table.AddRow({name, StrFormat("%llu", static_cast<unsigned long long>(run.exchanges)),
                  StrFormat("%.2f", static_cast<double>(run.model_bytes) / 1e6),
                  StrFormat("%.2f", static_cast<double>(run.real_bytes) / 1e6),
                  StrFormat("%.3f", static_cast<double>(run.real_bytes) /
                                        static_cast<double>(run.model_bytes)),
                  StrFormat("%.0f", per_exchange_real)});
  }
  ctx.Emit(table, "ablation_wire_model");

  // Part 2: would Figure 6's conclusion survive bigger control messages?
  // Alex's extra cost vs invalidation on the HCS trace is purely control
  // traffic, so report the break-even control size.
  std::printf("--- control-size sensitivity on the HCS trace ---\n");
  const Workload& hcs = ctx.Traces()[2];
  const auto inval = RunSimulation(hcs, SimulationConfig::TraceDriven(PolicyConfig::Invalidation()));
  const auto alex = RunSimulation(hcs, SimulationConfig::TraceDriven(PolicyConfig::Alex(0.25)));
  // total(c) = payload + c * control_messages; solve for the c where Alex
  // and invalidation totals cross.
  const double alex_msgs = static_cast<double>(alex.metrics.control_bytes) / kControlMessageBytes;
  const double inval_msgs =
      static_cast<double>(inval.metrics.control_bytes) / kControlMessageBytes;
  const double payload_gap =
      static_cast<double>(inval.metrics.payload_bytes - alex.metrics.payload_bytes);
  if (alex_msgs > inval_msgs && payload_gap > 0) {
    std::printf("Alex(25%%) sends %.0f control messages vs invalidation's %.0f, but saves\n"
                "%.0f payload bytes; the protocols' totals cross at a control size of %.0f B\n"
                "(the paper's measured 43 B sits %s that break-even).\n",
                alex_msgs, inval_msgs, payload_gap, payload_gap / (alex_msgs - inval_msgs),
                43.0 < payload_gap / (alex_msgs - inval_msgs) ? "safely below" : "above");
  } else {
    std::printf("Alex(25%%) dominates invalidation on both control and payload bytes here;\n"
                "no control size reverses Figure 6's conclusion on this trace.\n");
  }
}

// Ablation: bounded caches.
//
// The paper's caches never evict ("valid entries are never evicted from the
// cache"), which flatters every protocol equally — except the invalidation
// protocol, whose server-side bookkeeping assumes it knows where copies
// live. With LRU eviction, each eviction tears down a subscription and each
// re-admission re-creates one; the weakly consistent protocols lose only hit
// rate. This sweeps the cache size from 1% to 100% of the working set on the
// HCS trace.
void AblationEviction(FigureContext& ctx) {
  std::printf("=== Ablation: LRU capacity vs the paper's unbounded caches (HCS trace) ===\n\n");
  const Workload& load = ctx.Traces()[2];
  const int64_t working_set = load.TotalObjectBytes();
  std::printf("working set: %s across %zu objects\n\n",
              FormatBytes(static_cast<double>(working_set)).c_str(), load.objects.size());

  TextTable table;
  table.SetHeader({"Capacity", "Policy", "Traffic (MB)", "Miss rate", "Stale rate",
                   "Evictions", "Server ops"});
  for (double fraction : {0.01, 0.05, 0.25, 1.0, 0.0 /* unbounded */}) {
    const int64_t capacity =
        fraction == 0.0 ? 0 : static_cast<int64_t>(fraction * static_cast<double>(working_set));
    const std::string label =
        fraction == 0.0 ? "unbounded" : StrFormat("%.0f%%", fraction * 100.0);
    for (const auto& [name, policy] :
         std::vector<std::pair<const char*, PolicyConfig>>{
             {"alex(25%)", PolicyConfig::Alex(0.25)},
             {"ttl(100h)", PolicyConfig::Ttl(Hours(100))},
             {"invalidation", PolicyConfig::Invalidation()}}) {
      SimulationConfig config = SimulationConfig::TraceDriven(policy);
      config.cache_capacity_bytes = capacity;
      // A bounded cache cannot be preloaded with the whole store.
      config.preload = capacity == 0 || capacity >= working_set;
      const auto result = RunSimulation(load, config);
      table.AddRow(
          {label, name, StrFormat("%.3f", result.metrics.TotalMB()),
           FormatPercent(result.metrics.MissRate(), 2),
           FormatPercent(result.metrics.StaleRate(), 3),
           StrFormat("%llu", static_cast<unsigned long long>(result.cache.evictions)),
           StrFormat("%llu", static_cast<unsigned long long>(result.metrics.server_operations))});
    }
  }
  ctx.Emit(table, "ablation_eviction");

  std::printf("Reading: once the cache is capacity-bound, every protocol's traffic is\n"
              "dominated by capacity misses and the consistency deltas shrink; the\n"
              "invalidation protocol additionally churns its server-side subscriptions\n"
              "(evictions ~= subscription teardowns). The paper's unbounded setting is the\n"
              "regime where consistency policy, not capacity, decides the outcome.\n");
}

// Ablation: the latency side of the bandwidth trade.
//
// §2/§3: the mark-invalid optimizations "increased latency on subsequent
// accesses, but decreased bandwidth consumption", and the combined
// query+retransmit request "traded the latency of the query request for the
// bandwidth savings". This makes that trade visible: mean upstream round
// trips per client request for each protocol, collapsed and through a
// two-level hierarchy (where a validation can cost 2 RTTs).
void AblationLatency(FigureContext& ctx) {
  std::printf("=== Ablation: round trips per request (latency proxy) ===\n\n");
  const Workload& load = ctx.Traces()[2];  // HCS

  TextTable table;
  table.SetTitle("HCS trace, warm caches; RTT = upstream contacts per client request:");
  table.SetHeader({"Policy", "collapsed: mean RTT", "collapsed: stale", "hier: mean leaf RTT",
                   "hier: max RTT"});
  struct Row {
    const char* name;
    PolicyConfig policy;
  };
  for (const Row& row : {Row{"alex(0) — poll always", PolicyConfig::Alex(0.0)},
                         Row{"alex(5%)", PolicyConfig::Alex(0.05)},
                         Row{"alex(25%)", PolicyConfig::Alex(0.25)},
                         Row{"ttl(100h)", PolicyConfig::Ttl(Hours(100))},
                         Row{"invalidation", PolicyConfig::Invalidation()}}) {
    const auto collapsed = RunSimulation(load, SimulationConfig::TraceDriven(row.policy));
    HierarchyConfig hier_config;
    hier_config.policy = row.policy;
    const HierarchyResult hier = RunHierarchySimulation(load, hier_config);
    const double leaf_rtt =
        (hier.l1a.MeanHops() * static_cast<double>(hier.l1a.requests) +
         hier.l1b.MeanHops() * static_cast<double>(hier.l1b.requests)) /
        static_cast<double>(hier.l1a.requests + hier.l1b.requests);
    table.AddRow({row.name, StrFormat("%.4f", collapsed.metrics.mean_round_trips),
                  FormatPercent(collapsed.metrics.StaleRate(), 3),
                  StrFormat("%.4f", leaf_rtt),
                  StrFormat("%d", std::max(hier.l1a.max_hops, hier.l1b.max_hops))});
  }
  ctx.Emit(table, "ablation_latency");

  std::printf("Reading: the invalidation protocol buys its perfect consistency with the\n"
              "FEWEST client-visible round trips (contact only when something actually\n"
              "changed); threshold-0 polling pays a full round trip on every request; tuned\n"
              "Alex sits within a few percent of invalidation's latency while also beating\n"
              "its bandwidth — the paper's \"best of all worlds\" framing, extended to the\n"
              "latency axis it mentions but never plots.\n");
}

// Ablation: the §5 dynamic-content trend.
//
// "The Microsoft trace logs revealed that 10% of the requests were for
// dynamically generated pages. This represents a tenfold increase from only
// six months ago. As the number of dynamic objects increases it will become
// critical to devise ways to cache the actual scripts..."
//
// Sweeps the cgi share of requests from 1% to 50% on a Microsoft-style week
// and reports how each protocol's stale rate, traffic, and server load
// degrade — quantifying why the trend worried the authors.
void AblationDynamicContent(FigureContext& ctx) {
  std::printf("=== Ablation: growing dynamic-content share (paper §5) ===\n\n");

  TextTable table;
  table.SetHeader({"cgi share", "Policy", "Traffic (MB)", "Stale rate", "Server ops",
                   "ops per 1k requests"});
  for (double share : {0.01, 0.10, 0.25, 0.50}) {
    const Workload load = BuildMixWorkload(share, 0x1995);
    for (const auto& [name, policy] :
         std::vector<std::pair<const char*, PolicyConfig>>{
             {"alex(10%)", PolicyConfig::Alex(0.10)},
             {"adaptive(2%)", PolicyConfig::Adaptive()},
             {"invalidation", PolicyConfig::Invalidation()}}) {
      const auto result = RunSimulation(load, SimulationConfig::TraceDriven(policy));
      table.AddRow({FormatPercent(share, 0), name,
                    StrFormat("%.2f", result.metrics.TotalMB()),
                    FormatPercent(result.metrics.StaleRate(), 2),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(result.metrics.server_operations)),
                    StrFormat("%.0f", 1000.0 *
                                          static_cast<double>(result.metrics.server_operations) /
                                          static_cast<double>(result.metrics.requests))});
    }
  }
  ctx.Emit(table, "ablation_dynamic_content");

  std::printf("Reading: as churny dynamic pages take over the request mix, every protocol's\n"
              "costs climb — invalidation's notice traffic and refetches scale with change\n"
              "volume, while the time-based protocols must poll churny objects nearly every\n"
              "request. Exactly the §5 concern: at high dynamic shares, caching the OUTPUT\n"
              "stops working and one must cache the generators instead.\n");
}

// Ablation: invalidation's scalability problem (§1).
//
// "Servers must keep track of where their objects are currently cached,
// introducing scalability problems or necessitating hierarchical caching."
//
// One origin, N sibling proxies sharing the HCS request stream. As N grows,
// the invalidation protocol's server-side state (live subscriptions) and
// notice fan-out scale with N×objects and N×changes; the time-based
// protocols' server cost stays bounded by the request stream.
void AblationFleet(FigureContext& ctx) {
  std::printf("=== Ablation: one origin, N caches (paper §1 scalability) ===\n\n");
  const Workload& load = ctx.Traces()[2];  // HCS

  TextTable table;
  table.SetHeader({"caches", "Policy", "server ops", "invalidations", "peak subscriptions",
                   "total link MB", "fleet stale"});
  for (uint32_t n : {1u, 4u, 16u, 64u}) {
    for (const auto& [name, policy] :
         std::vector<std::pair<const char*, PolicyConfig>>{
             {"alex(25%)", PolicyConfig::Alex(0.25)},
             {"invalidation", PolicyConfig::Invalidation()}}) {
      FleetConfig config;
      config.policy = policy;
      config.num_caches = n;
      const FleetResult result = RunFleetSimulation(load, config, ctx.runner());
      table.AddRow(
          {StrFormat("%u", n), name,
           StrFormat("%llu", static_cast<unsigned long long>(result.server.TotalOperations())),
           StrFormat("%llu",
                     static_cast<unsigned long long>(result.server.invalidations_sent)),
           StrFormat("%zu", result.peak_subscriptions),
           StrFormat("%.2f", static_cast<double>(result.total_link_bytes) / 1e6),
           FormatPercent(result.StaleRate(), 3)});
    }
  }
  ctx.Emit(table, "ablation_fleet");

  std::printf("Reading: invalidation's subscriptions and notices scale LINEARLY in the\n"
              "holder population (64 caches -> 64x the bookkeeping and fan-out), while the\n"
              "time-based server load stays bounded by the request stream. This is why the\n"
              "paper says invalidation 'necessitat[es] hierarchical caching' at Web scale.\n");
}

// Ablation: restart recovery (§6's fault-resilience argument).
//
// "They are both more fault resilient ... Documents eventually become
// invalidated and the server is contacted upon subsequent requests. With an
// invalidation protocol, recovery is much more complicated."
//
// Method: replay the first half of the HCS trace, snapshot the cache,
// "restart" into a fresh cache+server session (losing the server's
// invalidation registrations, as a crash would), restore the snapshot, and
// replay the second half. Compare post-restart staleness and traffic under
// (a) trusting the snapshot vs (b) conservatively revalidating everything.
void AblationRestart(FigureContext& ctx) {
  std::printf("=== Ablation: crash/restart recovery (paper §6) ===\n\n");
  const Workload& load = ctx.Traces()[2];  // HCS
  const std::span<const RequestEvent> requests = load.requests;
  const size_t half = requests.size() / 2;
  const SimTime restart_at = requests[half].at;
  // Replay applies every modification in its span, so each session gets
  // those up to its own last request; the restarted session first catches
  // up on the ones before the restart.
  const std::span<const ModificationEvent> first_mods =
      ModificationsThrough(load, requests[half - 1].at);
  const std::span<const ModificationEvent> caught_up =
      ModificationsThrough(load, restart_at - Seconds(1));
  const std::span<const ModificationEvent> second_mods =
      ModificationsThrough(load, requests.back().at).subspan(caught_up.size());

  TextTable table;
  table.SetHeader({"Policy", "recovery", "post-restart stale", "post-restart traffic (MB)",
                   "post-restart server ops"});

  for (const auto& [policy_name, policy] :
       std::vector<std::pair<const char*, PolicyConfig>>{
           {"ttl(100h)", PolicyConfig::Ttl(Hours(100))},
           {"alex(25%)", PolicyConfig::Alex(0.25)},
           {"invalidation", PolicyConfig::Invalidation()}}) {
    for (const auto& [recovery_name, recovery] :
         std::vector<std::pair<const char*, SnapshotRecovery>>{
             {"trust snapshot", SnapshotRecovery::kTrustSnapshot},
             {"revalidate all", SnapshotRecovery::kRevalidateAll}}) {
      // First half.
      Session first(load, policy);
      first.cache.Preload(first.server.store(), SimTime::Epoch());
      ReplayOneCache(first.server, first.cache, requests.first(half), first_mods);
      std::stringstream snapshot;
      SaveCacheSnapshot(first.cache, snapshot);

      // Restart: fresh cache/server session; the server's state is rebuilt
      // from the authoritative store (replaying the first half's changes),
      // but its invalidation REGISTRY starts empty — the crash erased who
      // holds what. Its last replay resets both sides' stats before the
      // first post-restart request.
      Session second(load, policy);
      ReplayOneCache(second.server, second.cache, {}, caught_up);
      const int64_t restored = LoadCacheSnapshot(second.cache, snapshot, recovery);
      WEBCC_CHECK(restored >= 0);
      ReplayOneCache(second.server, second.cache, requests.subspan(half), second_mods);

      const CacheStats& stats = second.cache.stats();
      table.AddRow({policy_name, recovery_name, FormatPercent(stats.StaleRate(), 3),
                    StrFormat("%.3f", static_cast<double>(second.server.stats().TotalBytes()) / 1e6),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          second.server.stats().TotalOperations()))});
    }
  }
  ctx.Emit(table, "ablation_restart");

  std::printf("Reading: the time-based policies recover for free — their validity state\n"
              "lives entirely in the snapshot, so trusting it is safe and cheap. The\n"
              "invalidation cache that trusts its snapshot serves stale data (its\n"
              "registrations died with the server's registry); safe recovery means\n"
              "revalidating everything, i.e. a burst of conditional GETs — the 'much more\n"
              "complicated' recovery of §6.\n");
}

// Ablation: the popularity–mutability coupling, the paper's load-bearing
// workload assumption.
//
// §4.2: "Bestavros found that on any given server only a few files change
// rapidly. Furthermore, he observed that globally popular files are the
// least likely to change. ... If the file request distribution is skewed
// towards popular files and popular files change less often, then the
// number of stale hits reported will decrease significantly."
//
// Regenerates the HCS workload three times — changing files placed among
// the UNPOPULAR ranks (reality), UNIFORMLY, and among the POPULAR ranks
// (adversarial) — and shows the paper's headline (weak consistency is cheap
// AND clean) degrading as the coupling is broken.
void AblationPopularityCoupling(FigureContext& ctx) {
  std::printf("=== Ablation: where do the changing files sit in the popularity ranking? ===\n\n");

  TextTable table;
  table.SetHeader({"Mutable files are...", "Policy", "Stale rate", "Traffic (MB)",
                   "Server ops", "vs inval traffic"});
  struct Placement {
    const char* label;
    MutablePlacement placement;
  };
  for (const Placement& p :
       {Placement{"unpopular (Bestavros)", MutablePlacement::kUnpopular},
        Placement{"uniform", MutablePlacement::kUniform},
        Placement{"popular (adversarial)", MutablePlacement::kPopular}}) {
    CampusServerProfile profile = CampusServerProfile::Hcs();
    profile.mutable_placement = p.placement;
    const Workload load = CompileTrace(GenerateCampusWorkload(profile).trace);
    const auto inval =
        RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Invalidation()));
    for (const auto& [name, policy] :
         std::vector<std::pair<const char*, PolicyConfig>>{
             {"alex(10%)", PolicyConfig::Alex(0.10)},
             {"ttl(100h)", PolicyConfig::Ttl(Hours(100))}}) {
      const auto result = RunSimulation(load, SimulationConfig::TraceDriven(policy));
      table.AddRow({p.label, name, FormatPercent(result.metrics.StaleRate(), 3),
                    StrFormat("%.3f", result.metrics.TotalMB()),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(result.metrics.server_operations)),
                    StrFormat("%.3f", static_cast<double>(result.metrics.total_bytes) /
                                          static_cast<double>(inval.metrics.total_bytes))});
    }
    table.AddRow({p.label, "invalidation", FormatPercent(inval.metrics.StaleRate(), 3),
                  StrFormat("%.3f", inval.metrics.TotalMB()),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(inval.metrics.server_operations)),
                  "1.000"});
  }
  ctx.Emit(table, "ablation_popularity_coupling");

  std::printf("Reading: with the realistic coupling the weakly consistent protocols are\n"
              "cheap AND clean. Put the churn on the hot objects instead and their stale\n"
              "rates multiply while invalidation's relative cost drops — the reversal the\n"
              "paper's trace workload produced against Worrell's uniform model, made\n"
              "adjustable.\n");
}

}  // namespace webcc::bench
