// paper-sweep and topology-faults: the simulator workloads.
//
// paper-sweep replays the Figs 2-5 grid (TTL 0-500 h and Alex 0-100 % under
// base and optimized refresh, plus invalidation under both) over the
// paper-scale Worrell stream on one SweepRunner. It is fault-free, so every
// run takes the engine-free replay path.
//
// topology-faults replays the same stream through a 16-member fleet and the
// two-level hierarchy under fig9's protocols with loss, origin downtime and
// one crash recovered from a snapshot, so every run rides the fault-armed
// engine path, and each fleet member applies every modification against
// 1/16 of the requests.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/digest.h"
#include "harness/workloads.h"
#include "src/cache/origin_upstream.h"
#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/experiment.h"
#include "src/core/fleet.h"
#include "src/core/hierarchy.h"
#include "src/core/metrics.h"
#include "src/core/simulation.h"
#include "src/core/sweep_runner.h"
#include "src/origin/server.h"
#include "src/workload/worrell.h"

namespace webcc::bench {

namespace {

constexpr int kSetupRepeats = 7;
constexpr uint32_t kFleetMembers = 16;
constexpr uint32_t kCrashedMember = 3;

// The paper's Worrell stream, re-seeded: seed 0 is the figures' own input.
WorrellConfig WorrellFor(uint64_t seed) {
  WorrellConfig config;
  config.seed = 19960101 + seed;
  return config;
}

// Generates the workload once untimed (the first call runs ~20 % slower),
// then kSetupRepeats more times (a span each), and keeps the last. setup_s
// is the median process CPU time of the timed generations: no pool exists
// yet, so that is all the set-up work, and unlike wall time it leaves out
// the time a busy host kept the thread off a CPU. Every generation must
// digest alike; each one is an output check.
Workload GenerateTimed(uint64_t seed, Tracer& tracer, double* setup_s, RunResult* checks) {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  Workload load = GenerateWorrellWorkload(WorrellFor(seed));
  const uint64_t first = Digest(load);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t cpu_start = ProcessCpuNanos();
    const int64_t start = WallNanos();
    load = GenerateWorrellWorkload(WorrellFor(seed));
    const int64_t end = WallNanos();
    cpu_s.push_back(static_cast<double>(ProcessCpuNanos() - cpu_start) * 1e-9);
    wall_s.push_back(static_cast<double>(end - start) * 1e-9);
    tracer.Record("workload.generate", start, end, -1, i);
    const bool same = Digest(load) == first;
    checks->Check(same);
    if (!same) {
      std::printf("check: timed generation %d digests differently from the first\n", i);
    }
  }
  *setup_s = Median(cpu_s);
  std::printf("setup: generated %s seed=%llu: %zu objects, %zu requests, %zu modifications; "
              "median %.4f s cpu (%.4f s wall) over %d timed generations\n",
              load.name.c_str(), static_cast<unsigned long long>(WorrellFor(seed).seed),
              load.objects.size(), load.requests.size(), load.modifications.size(), *setup_s,
              Median(wall_s), kSetupRepeats);
  return load;
}

// Runs untimed warm-up pass 0, then timed passes until `seconds` elapse
// (at least `min_passes`). In a traced run, timed passes alternate
// untraced/traced so both sides see the same machine state.
template <typename PassFn>
void RunPasses(const RunOptions& options, PassFn&& pass, std::vector<PassSample>* untraced,
               std::vector<PassSample>* traced) {
  const PassSample warm = pass(0, false);
  std::printf("pass 0 (warm-up, untimed): %.3f s wall, %.3f s cpu\n", warm.wall_s, warm.cpu_s);
  const int min_passes = options.trace ? 4 : 3;
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t start = WallNanos();
  for (int i = 1; i <= min_passes || WallNanos() - start < budget_ns; ++i) {
    const bool traced_pass = options.trace && i % 2 == 0;
    const PassSample sample = pass(i, traced_pass);
    (traced_pass ? traced : untraced)->push_back(sample);
    std::printf("pass %d%s: %.3f s wall, %.3f s cpu, %.2f M req/s, %.2f cpu ns/req\n", i,
                traced_pass ? " (traced)" : "", sample.wall_s, sample.cpu_s,
                static_cast<double>(sample.requests) / sample.wall_s * 1e-6,
                sample.cpu_s * 1e9 / static_cast<double>(sample.requests));
  }
}

uint64_t OkRequests(const CacheStats& client_facing) {
  return client_facing.requests - client_facing.degraded_serves - client_facing.failed_requests;
}

// Counts the returned stats expose; they repeat exactly for a seed.
struct SimCounts {
  uint64_t requests = 0;
  uint64_t hits_fresh = 0;
  uint64_t upstream_retries = 0;
  uint64_t crashes = 0;
  uint64_t invalidations_sent = 0;
  uint64_t invalidations_redelivered = 0;

  void AddClient(const CacheStats& c) {
    requests += c.requests;
    hits_fresh += c.hits_fresh;
    AddInner(c);
  }
  void AddInner(const CacheStats& c) {
    upstream_retries += c.upstream_retries;
    crashes += c.crashes;
  }
  void AddServer(const ServerStats& s) {
    invalidations_sent += s.invalidations_sent;
    invalidations_redelivered += s.invalidations_redelivered;
  }
  void Report(std::vector<Metric>* out) const {
    out->push_back({"cache.fresh_hit_share",
                    requests == 0 ? 0.0
                                  : static_cast<double>(hits_fresh) / static_cast<double>(requests),
                    "ratio"});
    out->push_back({"cache.upstream_retries", static_cast<double>(upstream_retries), "count"});
    out->push_back({"cache.crashes", static_cast<double>(crashes), "count"});
    out->push_back({"origin.invalidations_sent", static_cast<double>(invalidations_sent), "count"});
    out->push_back({"origin.invalidations_redelivered",
                    static_cast<double>(invalidations_redelivered), "count"});
  }
};

// Probe: replays one invalidation point with the benchmark's own merge-walk
// over OriginServer::ModifyObject and ProxyCache::HandleRequest, timing
// each run of consecutive requests and each burst of modifications as one
// batch. Each replay's result must equal RunSimulation's for the same
// point; each is an output check.
struct CacheProbe {
  double handle_request_ns = 0.0;
  double modify_ns = 0.0;
};

CacheProbe RunCacheProbe(const Workload& load, const SimulationConfig& config, Tracer& tracer,
                         RunResult* checks) {
  const uint64_t expected = Digest(RunSimulation(load, config));
  const int64_t clock_cost = ClockCostNanos();
  std::vector<double> request_ns;
  std::vector<double> modify_ns;
  bool mirrors = true;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t root = tracer.Open("core.cache_probe", -1, rep);
    OriginServer server;
    for (const ObjectSpec& spec : load.objects) {
      server.store().Create(spec.name, spec.type, spec.size_bytes,
                            SimTime::Epoch() - spec.initial_age);
    }
    OriginUpstream upstream(&server);
    CacheConfig cache_config;
    cache_config.refresh_mode = config.refresh_mode;
    cache_config.capacity_bytes = config.cache_capacity_bytes;
    ProxyCache cache("proxy", &upstream, MakePolicy(config.policy), cache_config,
                     &server.store());
    if (config.preload) {
      cache.Preload(server.store(), SimTime::Epoch());
    }
    server.ResetStats();
    cache.ResetStats();

    const std::vector<RequestEvent>& requests = load.requests;
    const std::vector<ModificationEvent>& mods = load.modifications;
    int64_t request_total = 0;
    int64_t modify_total = 0;
    size_t mod_i = 0;
    size_t req_i = 0;
    const auto modify_until = [&](bool all, SimTime at) {
      if (mod_i >= mods.size() || (!all && mods[mod_i].at > at)) {
        return;
      }
      const size_t first = mod_i;
      const int64_t start = WallNanos();
      while (mod_i < mods.size() && (all || mods[mod_i].at <= at)) {
        server.ModifyObject(mods[mod_i].object_index, mods[mod_i].at, mods[mod_i].new_size);
        ++mod_i;
      }
      const int64_t end = WallNanos();
      modify_total += end - start - clock_cost;
      tracer.Record("origin.modify_batch", start, end, root, static_cast<int64_t>(first));
    };
    while (req_i < requests.size()) {
      modify_until(false, requests[req_i].at);
      const size_t first = req_i;
      const int64_t start = WallNanos();
      do {
        cache.HandleRequest(static_cast<ObjectId>(requests[req_i].object_index),
                            requests[req_i].at);
        ++req_i;
      } while (req_i < requests.size() &&
               (mod_i >= mods.size() || mods[mod_i].at > requests[req_i].at));
      const int64_t end = WallNanos();
      request_total += end - start - clock_cost;
      tracer.Record("cache.handle_request_batch", start, end, root, static_cast<int64_t>(first));
    }
    modify_until(true, SimTime::Epoch());
    tracer.Close(root);

    SimulationResult mirrored;
    mirrored.workload_name = load.name;
    mirrored.policy_desc = cache.policy().Describe();
    mirrored.server = server.stats();
    mirrored.cache = cache.stats();
    mirrored.metrics = ComputeMetrics(mirrored.server, mirrored.cache);
    const bool equal = Digest(mirrored) == expected;
    checks->Check(equal);
    mirrors = mirrors && equal;
    request_ns.push_back(static_cast<double>(request_total) /
                         static_cast<double>(requests.size()));
    modify_ns.push_back(static_cast<double>(modify_total) /
                        static_cast<double>(std::max<size_t>(1, mods.size())));
  }
  CacheProbe probe;
  probe.handle_request_ns = Median(request_ns);
  probe.modify_ns = Median(modify_ns);
  std::printf("probe cache/origin on %s (%s): HandleRequest %.1f ns, ModifyObject %.1f ns, "
              "stats %s RunSimulation\n",
              load.name.c_str(), config.policy.Describe().c_str(), probe.handle_request_ns,
              probe.modify_ns, mirrors ? "equal" : "DIFFER from");
  return probe;
}

// Probe: re-runs a few paper points with faults armed and every knob zero,
// alternating with the clean path on this thread. Each pair's digests must
// match (an output check each); returns (armed / clean ns per request) - 1
// in percent.
double RunEngineOverheadProbe(const Workload& load, Tracer& tracer, RunResult* checks) {
  const std::vector<SimulationConfig> points = {
      SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(100))),
      SimulationConfig::Optimized(PolicyConfig::Alex(0.10)),
      SimulationConfig::Optimized(PolicyConfig::Invalidation()),
  };
  double clean_total = 0.0;
  double armed_total = 0.0;
  bool digests_equal = true;
  for (size_t p = 0; p < points.size(); ++p) {
    SimulationConfig armed = points[p];
    armed.faults.armed = true;
    std::vector<double> clean_ns;
    std::vector<double> armed_ns;
    for (int rep = 0; rep < 3; ++rep) {
      int64_t start = WallNanos();
      const SimulationResult clean_result = RunSimulation(load, points[p]);
      int64_t end = WallNanos();
      tracer.Record("core.run_simulation_clean", start, end, -1, static_cast<int64_t>(p));
      clean_ns.push_back(static_cast<double>(end - start));
      start = WallNanos();
      const SimulationResult armed_result = RunSimulation(load, armed);
      end = WallNanos();
      tracer.Record("sim.run_simulation_armed_zero", start, end, -1, static_cast<int64_t>(p));
      armed_ns.push_back(static_cast<double>(end - start));
      const bool equal = Digest(clean_result) == Digest(armed_result);
      checks->Check(equal);
      digests_equal = digests_equal && equal;
    }
    clean_total += Median(clean_ns);
    armed_total += Median(armed_ns);
  }
  const double overhead = (armed_total / clean_total - 1.0) * 100.0;
  std::printf("probe engine: armed-zero vs clean replay %+.1f %% (ttl 100h, alex 10%%, "
              "invalidation; optimized), digests %s\n",
              overhead, digests_equal ? "equal" : "DIFFER");
  return overhead;
}

DigestBook LoadBook(const std::string& path) {
  DigestBook book;
  std::string error;
  if (!book.Load(path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(2);
  }
  return book;
}

RunResult Finish(const RunOptions& options, const DigestChecker& checker,
                 const std::vector<PassSample>& untraced, const std::vector<PassSample>& traced,
                 double setup_s, RunResult result) {
  std::printf("check: %llu runs digested, %llu mismatches against %s\n",
              static_cast<unsigned long long>(checker.runs()),
              static_cast<unsigned long long>(checker.mismatches()),
              checker.recorded() ? "digests.txt" : "the first pass (seed not recorded)");
  for (const std::string& note : checker.notes()) {
    std::printf("check: %s\n", note.c_str());
  }
  result.AddChecks(checker.runs(), checker.mismatches());
  EndToEnd e2e = SummarizePasses(untraced, setup_s);
  e2e.ok_share = 1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.end_to_end = EndToEndMetrics(e2e);
  if (options.trace) {
    const EndToEnd traced_e2e = SummarizePasses(traced, setup_s);
    PrintTracingOverhead(e2e, traced_e2e);
    result.per_layer.push_back(
        {"trace.overhead_pct", PercentAbove(traced_e2e.cpu_ns_per_req, e2e.cpu_ns_per_req), "%"});
  }
  return result;
}

}  // namespace

RunResult RunPaperSweep(const RunOptions& options, Tracer& tracer) {
  const DigestBook book = LoadBook(options.digests_path);
  RunResult result;
  double setup_s = 0.0;
  const Workload load = GenerateTimed(options.seed, tracer, &setup_s, &result);

  // The Figs 2-5 grid: both axes under base and optimized refresh, then the
  // two invalidation points, in one task grid.
  std::vector<SweepPointSpec> specs;
  for (const SimulationConfig& base :
       {SimulationConfig::Base(PolicyConfig::Invalidation()),
        SimulationConfig::Optimized(PolicyConfig::Invalidation())}) {
    for (const double pct : PaperThresholdPercents()) {
      specs.push_back({pct, base});
      specs.back().config.policy = PolicyConfig::Alex(pct / 100.0);
    }
    for (const double hours : PaperTtlHours()) {
      specs.push_back({hours, base});
      specs.back().config.policy = PolicyConfig::Ttl(HoursF(hours));
    }
  }
  specs.push_back({0.0, SimulationConfig::Base(PolicyConfig::Invalidation())});
  specs.push_back({0.0, SimulationConfig::Optimized(PolicyConfig::Invalidation())});
  const size_t invalidation_point = specs.size() - 1;

  SweepRunner runner(Nproc());
  const uint64_t requests_per_pass = specs.size() * load.requests.size();
  DigestChecker checker(book, "paper-sweep", options.seed);
  SimCounts counts;
  std::vector<uint64_t> first_digests;

  // Traced-pass accounting: per-point replay ns/request, grid efficiency
  // and tail.
  std::vector<std::vector<double>> point_ns(specs.size());
  std::vector<double> efficiencies;
  std::vector<double> tails;

  const auto pass = [&](int index, bool traced) {
    std::vector<SimulationResult> results(specs.size());
    const int64_t cpu_start = ProcessCpuNanos();
    const int64_t start = WallNanos();
    if (!traced) {
      SweepSeries series = runner.Run("paper-grid", "param", load, specs);
      for (size_t i = 0; i < specs.size(); ++i) {
        results[i] = std::move(series.points[i].result);
      }
    } else {
      const int64_t grid = tracer.Open("core.sweep_grid", -1, index);
      std::vector<int64_t> begins(specs.size());
      std::vector<int64_t> ends(specs.size());
      std::vector<std::thread::id> threads(specs.size());
      runner.ParallelFor(specs.size(), [&](size_t i) {
        begins[i] = WallNanos();
        results[i] = RunSimulation(load, specs[i].config);
        ends[i] = WallNanos();
        threads[i] = std::this_thread::get_id();
        tracer.Record("core.run_simulation", begins[i], ends[i], grid, static_cast<int64_t>(i));
      });
      tracer.Close(grid);
      const int64_t grid_end = WallNanos();
      double busy = 0.0;
      std::unordered_map<std::thread::id, int64_t> last_end;
      for (size_t i = 0; i < specs.size(); ++i) {
        busy += static_cast<double>(ends[i] - begins[i]);
        point_ns[i].push_back(static_cast<double>(ends[i] - begins[i]) /
                              static_cast<double>(load.requests.size()));
        int64_t& last = last_end[threads[i]];
        last = std::max(last, ends[i]);
      }
      int64_t first_idle = grid_end;
      for (const auto& [thread, end] : last_end) {
        first_idle = std::min(first_idle, end);
      }
      efficiencies.push_back(busy / (static_cast<double>(grid_end - start) *
                                     static_cast<double>(runner.jobs())));
      tails.push_back(static_cast<double>(grid_end - first_idle) * 1e-9);
    }
    PassSample sample;
    sample.wall_s = static_cast<double>(WallNanos() - start) * 1e-9;
    sample.cpu_s = static_cast<double>(ProcessCpuNanos() - cpu_start) * 1e-9;
    std::vector<uint64_t> digests;
    for (const SimulationResult& r : results) {
      digests.push_back(Digest(r));
      sample.requests += r.cache.requests;
      sample.ok_requests += OkRequests(r.cache);
      if (RequestConservationGap(r.cache) != 0) {
        digests.back() = ~digests.back();  // a broken conservation law fails the run
      }
    }
    if (sample.requests != requests_per_pass) {
      std::printf("check: pass %d replayed %llu requests, expected %llu\n", index,
                  static_cast<unsigned long long>(sample.requests),
                  static_cast<unsigned long long>(requests_per_pass));
      digests.back() = ~digests.back();
    }
    checker.Check(digests);
    if (index == 0) {
      first_digests = digests;
      for (const SimulationResult& r : results) {
        counts.AddClient(r.cache);
        counts.AddServer(r.server);
      }
    }
    return sample;
  };

  if (options.print_digests) {
    pass(0, false);
    std::printf("%s\n", DigestBook::Line("paper-sweep", options.seed, first_digests).c_str());
    std::exit(0);
  }

  std::vector<PassSample> untraced;
  std::vector<PassSample> traced;
  RunPasses(options, pass, &untraced, &traced);

  if (options.trace) {
    std::vector<Metric>& layer = result.per_layer;
    std::vector<double> per_point;
    for (const std::vector<double>& ns : point_ns) {
      per_point.push_back(Median(ns));
    }
    const CacheProbe probe =
        RunCacheProbe(load, specs[invalidation_point].config, tracer, &result);
    const double engine_pct = RunEngineOverheadProbe(load, tracer, &result);
    layer.push_back({"workload.generate_s", setup_s, "s"});
    layer.push_back({"core.replay_ns_per_req_p50", Median(per_point), "ns"});
    layer.push_back({"core.replay_ns_per_req_max", Quantile(per_point, 1.0), "ns"});
    layer.push_back({"core.sweep_parallel_eff", Median(efficiencies), "ratio"});
    layer.push_back({"core.sweep_tail_s", Median(tails), "s"});
    layer.push_back({"cache.handle_request_ns", probe.handle_request_ns, "ns"});
    layer.push_back({"origin.modify_ns", probe.modify_ns, "ns"});
    layer.push_back({"sim.engine_overhead_pct", engine_pct, "%"});
    counts.Report(&layer);
  }
  return Finish(options, checker, untraced, traced, setup_s, std::move(result));
}

namespace {

// Records a span from OnRunStart to OnRunEnd of one fleet member's world.
class MemberSpan final : public SimObserver {
 public:
  void OnRunStart(const ProxyCache& cache, const OriginServer& server) override {
    (void)cache;
    (void)server;
    start_ns = WallNanos();
  }
  void OnRunEnd(const ProxyCache& cache, const OriginServer& server) override {
    (void)cache;
    (void)server;
    end_ns = WallNanos();
  }

  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// fig9's protocols, optimized refresh.
std::vector<PolicyConfig> Fig9Policies() {
  return {PolicyConfig::Ttl(Hours(10)), PolicyConfig::Alex(0.1), PolicyConfig::Invalidation(),
          PolicyConfig::Invalidation(Hours(1))};
}

// 5 % loss and origin MTBF 2 d / MTTR 4 h on every link, seeded from the
// run's seed, plus one cache crash on `crashed_link` recovered from its
// snapshot (kAuto: revalidate-all under invalidation, trust otherwise).
FaultConfig TopologyFaults(uint64_t seed, uint32_t crashed_link) {
  FaultConfig faults;
  faults.seed = 0x5eedFA17 + seed;
  faults.loss_rate = 0.05;
  faults.server_mtbf = Days(2);
  faults.server_mttr = Hours(4);
  LinkFaultOverride crash;
  crash.link = crashed_link;
  crash.crashes.push_back(CacheCrashEvent{SimTime::Epoch() + Days(20), Hours(6)});
  faults.link_overrides.push_back(crash);
  return faults;
}

// Member `member`'s request slice, as fleet routing assigns it.
Workload MemberSlice(const Workload& load, uint32_t member) {
  Workload view;
  view.name = load.name + "/member-" + std::to_string(member);
  view.objects = load.objects;
  view.modifications = load.modifications;
  view.horizon = load.horizon;
  for (const RequestEvent& req : load.requests) {
    if (req.client_id % kFleetMembers == member) {
      view.requests.push_back(req);
    }
  }
  return view;
}

}  // namespace

RunResult RunTopologyFaults(const RunOptions& options, Tracer& tracer) {
  const DigestBook book = LoadBook(options.digests_path);
  RunResult result;
  double setup_s = 0.0;
  const Workload load = GenerateTimed(options.seed, tracer, &setup_s, &result);

  std::vector<FleetConfig> fleets;
  std::vector<HierarchyConfig> hierarchies;
  for (const PolicyConfig& policy : Fig9Policies()) {
    FleetConfig fleet;
    fleet.policy = policy;
    fleet.num_caches = kFleetMembers;
    fleet.faults = TopologyFaults(options.seed, kCrashedMember);
    fleet.keep_member_results = true;
    fleets.push_back(fleet);
    HierarchyConfig tree;
    tree.policy = policy;
    tree.faults = TopologyFaults(options.seed, static_cast<uint32_t>(HierarchyLink::kL2L1a));
    hierarchies.push_back(tree);
  }

  SweepRunner runner(Nproc());
  DigestChecker checker(book, "topology-faults", options.seed);
  SimCounts counts;
  std::vector<uint64_t> first_digests;
  std::vector<double> member_s;
  std::vector<double> fleet_eff;
  std::vector<double> hierarchy_s;

  const auto pass = [&](int index, bool traced) {
    std::vector<FleetResult> fleet_results(fleets.size());
    std::vector<HierarchyResult> tree_results(hierarchies.size());
    const int64_t cpu_start = ProcessCpuNanos();
    const int64_t start = WallNanos();
    for (size_t f = 0; f < fleets.size(); ++f) {
      if (!traced) {
        fleet_results[f] = RunFleetSimulation(load, fleets[f], runner);
        continue;
      }
      std::vector<MemberSpan> spans(kFleetMembers);
      FleetConfig observed = fleets[f];
      observed.member_observer = [&spans](uint32_t member) { return &spans[member]; };
      const int64_t fleet_start = WallNanos();
      const int64_t fleet_span = tracer.Open("core.fleet", -1, static_cast<int64_t>(f));
      fleet_results[f] = RunFleetSimulation(load, observed, runner);
      tracer.Close(fleet_span);
      const int64_t fleet_end = WallNanos();
      double busy = 0.0;
      for (uint32_t m = 0; m < kFleetMembers; ++m) {
        tracer.Record("core.fleet_member", spans[m].start_ns, spans[m].end_ns, fleet_span, m);
        const double seconds = static_cast<double>(spans[m].end_ns - spans[m].start_ns) * 1e-9;
        member_s.push_back(seconds);
        busy += seconds;
      }
      fleet_eff.push_back(busy / (static_cast<double>(fleet_end - fleet_start) * 1e-9 *
                                  static_cast<double>(runner.jobs())));
    }
    const int64_t trees = traced ? tracer.Open("core.hierarchy_batch", -1, index) : -1;
    std::vector<double> tree_s(hierarchies.size());
    runner.ParallelFor(hierarchies.size(), [&](size_t h) {
      const int64_t run_start = WallNanos();
      tree_results[h] = RunHierarchySimulation(load, hierarchies[h]);
      const int64_t run_end = WallNanos();
      tree_s[h] = static_cast<double>(run_end - run_start) * 1e-9;
      if (traced) {
        tracer.Record("core.hierarchy_run", run_start, run_end, trees, static_cast<int64_t>(h));
      }
    });
    tracer.Close(trees);
    if (traced) {
      hierarchy_s.insert(hierarchy_s.end(), tree_s.begin(), tree_s.end());
    }
    PassSample sample;
    sample.wall_s = static_cast<double>(WallNanos() - start) * 1e-9;
    sample.cpu_s = static_cast<double>(ProcessCpuNanos() - cpu_start) * 1e-9;

    std::vector<uint64_t> digests;
    for (const FleetResult& r : fleet_results) {
      digests.push_back(Digest(r));
      for (const SimulationResult& member : r.member_results) {
        sample.requests += member.cache.requests;
        sample.ok_requests += OkRequests(member.cache);
        if (RequestConservationGap(member.cache) != 0) {
          digests.back() = ~digests.back();
        }
      }
    }
    for (const HierarchyResult& r : tree_results) {
      digests.push_back(Digest(r));
      for (const CacheStats* leaf : {&r.l1a, &r.l1b}) {
        sample.requests += leaf->requests;
        sample.ok_requests += OkRequests(*leaf);
      }
    }
    checker.Check(digests);
    if (index == 0) {
      first_digests = digests;
      for (const FleetResult& r : fleet_results) {
        counts.AddServer(r.server);
        for (const SimulationResult& member : r.member_results) {
          counts.AddClient(member.cache);
        }
      }
      for (const HierarchyResult& r : tree_results) {
        counts.AddServer(r.server);
        counts.AddClient(r.l1a);
        counts.AddClient(r.l1b);
        counts.AddInner(r.l2);
      }
    }
    return sample;
  };

  if (options.print_digests) {
    pass(0, false);
    std::printf("%s\n", DigestBook::Line("topology-faults", options.seed, first_digests).c_str());
    std::exit(0);
  }

  std::vector<PassSample> untraced;
  std::vector<PassSample> traced;
  RunPasses(options, pass, &untraced, &traced);

  if (options.trace) {
    SimulationConfig member_config = SimulationConfig::Optimized(PolicyConfig::Invalidation());
    const CacheProbe probe = RunCacheProbe(MemberSlice(load, 0), member_config, tracer, &result);
    const double engine_pct = RunEngineOverheadProbe(load, tracer, &result);
    std::vector<Metric>& layer = result.per_layer;
    layer.push_back({"workload.generate_s", setup_s, "s"});
    layer.push_back({"core.fleet_member_s_p50", Median(member_s), "s"});
    layer.push_back({"core.fleet_member_s_max", Quantile(member_s, 1.0), "s"});
    layer.push_back({"core.fleet_parallel_eff", Median(fleet_eff), "ratio"});
    layer.push_back({"core.hierarchy_run_s", Median(hierarchy_s), "s"});
    layer.push_back({"cache.handle_request_ns", probe.handle_request_ns, "ns"});
    layer.push_back({"origin.modify_ns", probe.modify_ns, "ns"});
    layer.push_back({"sim.engine_overhead_pct", engine_pct, "%"});
    counts.Report(&layer);
  }
  return Finish(options, checker, untraced, traced, setup_s, std::move(result));
}

}  // namespace webcc::bench
