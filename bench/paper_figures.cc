// The paper's Figures 1–9 and Tables 1–2.
//
// Figures 2–8 plot columns of three grids (see FigureContext): each sweeps
// the Alex update threshold over 0–100% and the TTL over 0–500 hours against
// the invalidation protocol's constant.

#include <cstdio>

#include "bench/figures.h"
#include "src/core/hierarchy.h"
#include "src/core/report.h"
#include "src/util/str.h"
#include "src/workload/analyzer.h"
#include "src/workload/campus.h"
#include "src/workload/microsoft.h"

namespace webcc::bench {

// Figure 1 ablation: quantifies the paper's argument that collapsing the
// cache hierarchy biases the results AGAINST time-based protocols, so the
// collapsed-simulation conclusions are conservative. Part 1 measures the
// figure's four micro-scenarios (a)–(d) in a two-level hierarchy (server ->
// cache-2 -> cache-1a/1b) and in the collapsed topology. Part 2 repeats the
// comparison on a full trace workload.
void Fig1(FigureContext& ctx) {
  std::printf("=== Figure 1 ablation: hierarchical vs collapsed caching ===\n\n");

  TextTable scenarios;
  scenarios.SetTitle("Four scenarios, total link bytes (time-based = TTL):");
  scenarios.SetHeader({"Scenario", "hier inval", "hier time-based", "collapsed inval",
                       "collapsed time-based", "ratio hier", "ratio collapsed"});
  for (const ScenarioOutcome& o : RunFigure1Scenarios()) {
    scenarios.AddRow({o.scenario + ": " + o.description,
                      StrFormat("%lld", static_cast<long long>(o.hier_invalidation_bytes)),
                      StrFormat("%lld", static_cast<long long>(o.hier_timebased_bytes)),
                      StrFormat("%lld", static_cast<long long>(o.collapsed_invalidation_bytes)),
                      StrFormat("%lld", static_cast<long long>(o.collapsed_timebased_bytes)),
                      StrFormat("%.2f", o.HierRatio()),
                      StrFormat("%.2f", o.CollapsedRatio())});
  }
  ctx.Emit(scenarios, "fig1_scenarios");

  // Part 2: a whole trace through both topologies.
  std::printf("--- full HCS trace through a 2-level hierarchy vs collapsed ---\n");
  const Workload& load = ctx.Traces()[2];  // HCS
  TextTable full;
  full.SetHeader({"Protocol", "hier total bytes", "collapsed total bytes",
                  "hier/collapsed", "leaf stale hits (hier)"});
  struct Row {
    const char* name;
    PolicyConfig policy;
  };
  for (const Row& row : {Row{"invalidation", PolicyConfig::Invalidation()},
                         Row{"ttl(100h)", PolicyConfig::Ttl(Hours(100))},
                         Row{"alex(10%)", PolicyConfig::Alex(0.10)}}) {
    HierarchyConfig hier_config;
    hier_config.policy = row.policy;
    const HierarchyResult hier = RunHierarchySimulation(load, hier_config);
    const auto collapsed = RunSimulation(load, SimulationConfig::TraceDriven(row.policy));
    full.AddRow({row.name, StrFormat("%lld", static_cast<long long>(hier.TotalLinkBytes())),
                 StrFormat("%lld", static_cast<long long>(collapsed.metrics.total_bytes)),
                 StrFormat("%.3f", static_cast<double>(hier.TotalLinkBytes()) /
                                       static_cast<double>(collapsed.metrics.total_bytes)),
                 StrFormat("%llu", static_cast<unsigned long long>(hier.LeafStaleHits()))});
  }
  ctx.Emit(full, "fig1_full_trace");

  std::printf("claim check: in every scenario where the topologies differ, the\n"
              "time-based/invalidation ratio is no worse hierarchical than collapsed —\n"
              "so the paper's collapsed results UNDERSTATE the time-based advantage.\n");
}

// Figure 2: bandwidth usage in the BASE simulator. Worrell workload, cache
// pre-loaded with valid copies of all files, expired objects re-fetched in
// full. Expected shape: the invalidation protocol's constant beats both
// time-based protocols until the threshold/TTL is quite large.
void Fig2(FigureContext& ctx) {
  std::printf("=== Figure 2: bandwidth, base simulator (Worrell workload) ===\n\n");
  const Workload& load = ctx.Worrell();
  std::printf("workload: %zu files, %zu requests, %zu changes over %.0f days\n\n",
              load.objects.size(), load.requests.size(), load.modifications.size(),
              (load.horizon - SimTime::Epoch()).days());
  const PaperGrid& grid = ctx.BaseGrid();

  ctx.Emit(BandwidthFigure("(a) Alex cache consistency protocol", grid.alex, grid.inval),
           "fig2a_base_bandwidth_alex");
  std::printf("%s\n", FigureChart("Figure 2(a)", grid.alex, grid.inval,
                                   FigureMetric::kBandwidthMB).c_str());
  ctx.Emit(BandwidthFigure("(b) Time-to-live fields", grid.ttl, grid.inval),
           "fig2b_base_bandwidth_ttl");
  std::printf("%s\n", FigureChart("Figure 2(b)", grid.ttl, grid.inval,
                                   FigureMetric::kBandwidthMB).c_str());

  std::printf("paper reference points: invalidation ~1e2 MB (constant); TTL@125h ~130 MB;\n"
              "Alex@40%% ~400 MB; both time-based curves fall from ~1e4 MB at the left edge.\n");
}

// Figure 3: cache-miss and stale-hit rates in the BASE simulator. Expected
// shape: the threshold/TTL increases that bought bandwidth in Figure 2 buy
// stale hits here; the invalidation protocol provides a 0% stale rate and
// near-perfect misses.
void Fig3(FigureContext& ctx) {
  std::printf("=== Figure 3: miss/stale rates, base simulator (Worrell workload) ===\n\n");
  const PaperGrid& grid = ctx.BaseGrid();

  ctx.Emit(MissRateFigure("(a) Alex cache consistency protocol", grid.alex, grid.inval),
           "fig3a_base_missrates_alex");
  std::printf("%s\n", FigureChart("Figure 3(a) stale hits", grid.alex, grid.inval,
                                   FigureMetric::kStalePercent).c_str());
  ctx.Emit(MissRateFigure("(b) Time-to-live fields", grid.ttl, grid.inval),
           "fig3b_base_missrates_ttl");
  std::printf("%s\n", FigureChart("Figure 3(b) stale hits", grid.ttl, grid.inval,
                                   FigureMetric::kStalePercent).c_str());

  std::printf("paper reference points: stale hits climb with the parameter (Alex@40%% and\n"
              "TTL@125h both ~25%% in the paper); invalidation stale rate is exactly 0%%.\n");
}

// Figure 4: bandwidth usage in the OPTIMIZED simulator. Same workload as
// Figure 2, but expiry only marks entries invalid and the next request
// issues a combined "send this file if it has changed since" query — files
// are transmitted only when truly stale. Expected shape: both TTL and Alex
// drop to or below the invalidation protocol's bandwidth across most of the
// axis.
void Fig4(FigureContext& ctx) {
  std::printf("=== Figure 4: bandwidth, optimized simulator (Worrell workload) ===\n\n");
  const PaperGrid& grid = ctx.OptimizedGrid();

  ctx.Emit(BandwidthFigure("(a) Alex cache consistency protocol", grid.alex, grid.inval),
           "fig4a_optimized_bandwidth_alex");
  std::printf("%s\n", FigureChart("Figure 4(a)", grid.alex, grid.inval,
                                   FigureMetric::kBandwidthMB).c_str());
  ctx.Emit(BandwidthFigure("(b) Time-to-live fields", grid.ttl, grid.inval),
           "fig4b_optimized_bandwidth_ttl");
  std::printf("%s\n", FigureChart("Figure 4(b)", grid.ttl, grid.inval,
                                   FigureMetric::kBandwidthMB).c_str());

  std::printf("paper reference point: TTL@100h saves ~32%% of the invalidation protocol's\n"
              "bandwidth; neither protocol ever ships more file bytes than invalidation.\n");
}

// Figure 5: cache-miss rates in the OPTIMIZED simulator. Expected shape:
// leaving invalidated bodies in the cache makes the miss rates of all three
// protocols indistinguishable from the invalidation protocol's near-perfect
// rate — but the stale rates are UNCHANGED from Figure 3 ("the stale hit
// rate remains unacceptably high").
void Fig5(FigureContext& ctx) {
  std::printf("=== Figure 5: miss/stale rates, optimized simulator (Worrell workload) ===\n\n");
  const PaperGrid& grid = ctx.OptimizedGrid();

  ctx.Emit(MissRateFigure("(a) Alex cache consistency protocol", grid.alex, grid.inval),
           "fig5a_optimized_missrates_alex");
  std::printf("%s\n", FigureChart("Figure 5(a) cache misses", grid.alex, grid.inval,
                                   FigureMetric::kMissPercent).c_str());
  ctx.Emit(MissRateFigure("(b) Time-to-live fields", grid.ttl, grid.inval),
           "fig5b_optimized_missrates_ttl");

  std::printf("paper reference point: TTL@100h still returns ~20%% stale data despite the\n"
              "near-perfect miss rate — the optimization changes bytes, not consistency.\n");
}

// Figure 6: bandwidth usage with the MODIFIED-WORKLOAD (trace-driven)
// simulator — the averages of the FAS, HCS, and DAS traces. Expected shape:
// with realistic (bursty, popularity-skewed, rarely changing) workloads,
// both Alex and TTL use less bandwidth than the invalidation protocol for
// nearly all parameter settings.
void Fig6(FigureContext& ctx) {
  std::printf("=== Figure 6: bandwidth, trace-driven simulator (DAS/FAS/HCS average) ===\n\n");
  for (const Workload& load : ctx.Traces()) {
    std::printf("trace %-4s: %5zu files, %6zu requests, %4zu observed changes\n",
                load.name.c_str(), load.objects.size(), load.requests.size(),
                load.modifications.size());
  }
  std::printf("\n");
  const PaperGrid& grid = ctx.TraceGrid();

  ctx.Emit(BandwidthFigure("(a) Alex cache consistency protocol", grid.alex, grid.inval),
           "fig6a_trace_bandwidth_alex");
  std::printf("%s\n", FigureChart("Figure 6(a)", grid.alex, grid.inval,
                                   FigureMetric::kBandwidthMB).c_str());
  ctx.Emit(BandwidthFigure("(b) Time-to-live fields", grid.ttl, grid.inval),
           "fig6b_trace_bandwidth_ttl");

  std::printf("paper reference: both protocols sit below the invalidation constant for\n"
              "nearly all settings because few files change on real servers.\n");
}

// Figure 7: cache-miss and stale-hit rates with the trace-driven simulator.
// Expected shape: extremely low stale rates (<5% everywhere that matters;
// <1% at a 5% update threshold) and miss rates for invalidation, Alex, and
// TTL all tiny and overlapping.
void Fig7(FigureContext& ctx) {
  std::printf("=== Figure 7: miss/stale rates, trace-driven simulator (DAS/FAS/HCS average) ===\n\n");
  const PaperGrid& grid = ctx.TraceGrid();

  ctx.Emit(MissRateFigure("(a) Alex cache consistency protocol", grid.alex, grid.inval),
           "fig7a_trace_missrates_alex");
  std::printf("%s\n", FigureChart("Figure 7(a) stale hits", grid.alex, grid.inval,
                                   FigureMetric::kStalePercent).c_str());
  ctx.Emit(MissRateFigure("(b) Time-to-live fields", grid.ttl, grid.inval),
           "fig7b_trace_missrates_ttl");

  // The §4.2 headline: threshold 5% -> stale < 1%.
  for (const SweepPoint& point : grid.alex.points) {
    if (point.param == 5.0) {
      std::printf("headline check: Alex@5%% stale rate = %.3f%% (paper: <1%%)\n",
                  point.result.metrics.StaleRate() * 100.0);
    }
  }
}

// Figure 8: server load (total server operations — document requests,
// staleness queries, and invalidation notices) under the trace workload.
// Expected shape: parameterization is critical. Alex@0 checks on every
// request ("as some poorly designed servers currently do") and costs nearly
// two orders of magnitude more queries than necessary; Alex needs a
// threshold of roughly 64% to match the invalidation protocol's load (where
// its stale rate is ~4%); TTL always imposes more load than invalidation;
// tuned Alex imposes less load than TTL.
void Fig8(FigureContext& ctx) {
  std::printf("=== Figure 8: server load, trace-driven simulator (DAS/FAS/HCS average) ===\n\n");
  const PaperGrid& grid = ctx.TraceGrid();
  const SweepSeries& alex = grid.alex;
  const ConsistencyMetrics& inval = grid.inval;

  ctx.Emit(ServerLoadFigure("(a) Alex cache consistency protocol", alex, inval),
           "fig8a_server_load_alex");
  std::printf("%s\n",
              FigureChart("Figure 8(a)", alex, inval, FigureMetric::kServerOps).c_str());
  ctx.Emit(ServerLoadFigure("(b) Time-to-live fields", grid.ttl, inval),
           "fig8b_server_load_ttl");

  // Locate the Alex/invalidation crossover and report the stale rate there.
  bool crossed = false;
  for (const SweepPoint& point : alex.points) {
    if (point.result.metrics.server_operations <= inval.server_operations) {
      std::printf("crossover: Alex matches invalidation server load at threshold %.0f%% "
                  "(stale rate there: %.2f%%; paper: ~64%% threshold, ~4%% stale)\n",
                  point.param, point.result.metrics.StaleRate() * 100.0);
      crossed = true;
      break;
    }
  }
  if (!crossed) {
    std::printf("no crossover within 0-100%% on this calibration (Alex@100%% = %.2fx "
                "invalidation; paper crosses at ~64%%)\n",
                static_cast<double>(alex.points.back().result.metrics.server_operations) /
                    static_cast<double>(inval.server_operations));
  }
  const double zero_ratio =
      static_cast<double>(alex.points.front().result.metrics.server_operations) /
      static_cast<double>(inval.server_operations);
  std::printf("Alex@0 costs %.0fx the invalidation protocol's operations "
              "(paper: ~two orders of magnitude)\n", zero_ratio);
}

// Figure 9 (extension): staleness under failure — message loss x origin
// downtime, for each consistency protocol.
//
// The paper's §1/§6 claim, measured: the weakly consistent protocols (TTL,
// Alex) degrade gracefully because their staleness is bounded by the
// validity window regardless of what the network does, while the
// invalidation protocol's perfect consistency is exactly as good as its
// delivery — lost or undeliverable notices open unbounded silent-staleness
// windows until the server's redelivery timer closes them. A lease hedge
// converts that silent staleness into detected degraded serves.
void Fig9(FigureContext& ctx) {
  std::printf("=== Figure 9: staleness under failure (Worrell workload) ===\n\n");
  // The synthetic Worrell workload (as in Figures 2-5) rather than a campus
  // trace: its ~20k changes give the invalidation protocol something to
  // lose. A real-trace FAS run has 8 changes in a month — the degradation
  // exists but hides in the fourth decimal.
  const Workload& load = ctx.Worrell();
  std::printf("workload %s: %zu files, %zu requests, %zu changes\n\n", load.name.c_str(),
              load.objects.size(), load.requests.size(), load.modifications.size());

  const std::vector<double> loss_rates = {0.0, 0.05, 0.1, 0.2, 0.4};
  struct Scenario {
    const char* title;
    const char* csv;
    SimDuration mtbf;
    SimDuration mttr;
  };
  const Scenario scenarios[] = {
      {"(a) lossy link, origin always up", "fig9a_fault_staleness_loss",
       SimDuration(0), SimDuration(0)},
      {"(b) lossy link + origin downtime (MTBF 2d, MTTR 4h)",
       "fig9b_fault_staleness_downtime", Days(2), Hours(4)},
  };

  for (const Scenario& scenario : scenarios) {
    auto base = [&](PolicyConfig policy) {
      SimulationConfig config = SimulationConfig::Optimized(policy);
      config.faults.server_mtbf = scenario.mtbf;
      config.faults.server_mttr = scenario.mttr;
      return config;
    };
    const SweepSeries ttl =
        SweepLossRate(load, base(PolicyConfig::Ttl(Hours(10))), loss_rates, ctx.jobs());
    const SweepSeries alex =
        SweepLossRate(load, base(PolicyConfig::Alex(0.1)), loss_rates, ctx.jobs());
    const SweepSeries inval =
        SweepLossRate(load, base(PolicyConfig::Invalidation()), loss_rates, ctx.jobs());
    const SweepSeries leased = SweepLossRate(
        load, base(PolicyConfig::Invalidation(Hours(1))), loss_rates, ctx.jobs());

    TextTable table;
    table.SetTitle(scenario.title);
    table.SetHeader({"Loss %", "TTL stale%", "Alex stale%", "Inval stale%", "Inval degr%",
                     "Lease stale%", "Lease degr%", "Inval lost", "Inval redeliv"});
    for (size_t i = 0; i < loss_rates.size(); ++i) {
      const ConsistencyMetrics& t = ttl.points[i].result.metrics;
      const ConsistencyMetrics& a = alex.points[i].result.metrics;
      const ConsistencyMetrics& n = inval.points[i].result.metrics;
      const ConsistencyMetrics& l = leased.points[i].result.metrics;
      const auto pct = [](uint64_t part, uint64_t whole) {
        return StrFormat("%.3f",
                         whole == 0 ? 0.0
                                    : 100.0 * static_cast<double>(part) /
                                          static_cast<double>(whole));
      };
      table.AddRow({StrFormat("%.0f", loss_rates[i] * 100.0),
                    pct(t.stale_hits, t.requests), pct(a.stale_hits, a.requests),
                    pct(n.stale_hits, n.requests), pct(n.degraded_serves, n.requests),
                    pct(l.stale_hits, l.requests), pct(l.degraded_serves, l.requests),
                    StrFormat("%llu", static_cast<unsigned long long>(n.invalidations_lost)),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(n.invalidations_redelivered))});
    }
    ctx.Emit(table, scenario.csv);
  }

  std::printf(
      "expected shape: TTL/Alex staleness is set by the validity window and barely moves\n"
      "with loss; invalidation staleness starts at zero and grows with every lost or\n"
      "undeliverable notice (bounded only by the redelivery timer), and the lease variant\n"
      "trades part of it for detected degraded serves.\n");
}

// Table 1: mutability statistics for the campus servers (DAS, FAS, HCS).
//
// The generator synthesizes each server's one-month trace calibrated to the
// paper's row; the statistics are then re-derived two ways: from the trace,
// via Last-Modified transition inference — the paper's own measurement
// methodology — and from ground truth, to expose the observation-granularity
// gap.
//
// The paper's (total changes, % mutable, % very mutable) triples are
// mutually over-constrained for DAS and HCS under the literal definitions
// (">1 change" / ">5 changes" per file need more change events than the
// reported totals), so the generator holds the change totals exact and
// backs off the file counts minimally; the residual shows up as
// measured-vs-paper deltas in the %-mutable columns.
void Table1(FigureContext& ctx) {
  std::printf("=== Table 1: mutability statistics (one-month campus traces) ===\n\n");

  std::vector<MutabilityStats> observed;
  std::vector<MutabilityStats> truth;
  for (const auto& profile : CampusServerProfile::AllTable1()) {
    const auto result = GenerateCampusWorkload(profile);
    MutabilityStats from_trace = AnalyzeTraceMutability(result.trace);
    from_trace.server = profile.name;
    observed.push_back(from_trace);
    truth.push_back(AnalyzeWorkloadMutability(result.workload));
  }

  std::printf("--- measured from the rendered trace (log-based inference, paper's method) ---\n");
  ctx.Emit(Table1Mutability(observed, PaperTable1Targets()), "table1_mutability_observed");

  std::printf("--- ground truth (server-side modification schedule) ---\n");
  ctx.Emit(Table1Mutability(truth, PaperTable1Targets()), "table1_mutability_truth");

  for (size_t i = 0; i < truth.size(); ++i) {
    const auto& profile = CampusServerProfile::AllTable1()[i];
    std::printf("%s: per-day change probability %.2f%% (paper quotes 1.8%% for HCS and the "
                "Bestavros range 0.5-2.0%%)\n",
                truth[i].server.c_str(),
                truth[i].PerDayChangeProbability(profile.duration_days) * 100.0);
  }
}

// Table 2: Microsoft proxy access mix + Boston University life-spans. Left
// columns come from a synthesized one-weekday Microsoft proxy log (~150k
// requests, 65% images, 10% dynamic); right columns from a synthesized
// 186-day daily-sampled BU modification log (~2.5k files, ~14k change
// observations), analyzed with the paper's conservative assumption that
// every file changed at least once in the window.
void Table2(FigureContext& ctx) {
  std::printf("=== Table 2: file-type access mix, sizes, ages, and life-spans ===\n\n");

  const auto access_log = GenerateMicrosoftAccessLog(MicrosoftMixConfig{});
  const auto mod_log = GenerateBuModificationLog(BuModLogConfig{});
  std::printf("Microsoft log: %zu requests over one weekday\n", access_log.size());
  std::printf("BU log: %zu files, %llu change observations over %u days\n\n",
              mod_log.files.size(),
              static_cast<unsigned long long>(mod_log.TotalObservations()), mod_log.num_days);

  const auto merged = MergeTypeStats(AnalyzeAccessMix(access_log), AnalyzeBuLifespans(mod_log));
  ctx.Emit(Table2FileTypes(merged), "table2_filetypes");

  uint64_t image_accesses = 0;
  uint64_t cgi_accesses = 0;
  for (const auto& row : merged) {
    if (row.type == FileType::kGif || row.type == FileType::kJpg) {
      image_accesses += row.access_count;
    }
    if (row.type == FileType::kCgi) {
      cgi_accesses += row.access_count;
    }
  }
  std::printf("images: %.1f%% of accesses (paper: 65%%); dynamic pages: %.1f%% (paper: ~10%%, §5)\n",
              100.0 * static_cast<double>(image_accesses) / static_cast<double>(access_log.size()),
              100.0 * static_cast<double>(cgi_accesses) / static_cast<double>(access_log.size()));
  std::printf("paper reference rows: gif 55%% / 7791 B / 85 d; html 22%% / 4786 B / 50 d;\n"
              "jpg 10%% / 21608 B / 100 d; cgi 9%% / 5980 B; other 4%%.\n");
}

}  // namespace webcc::bench
