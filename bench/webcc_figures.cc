// webcc-figures: regenerates the paper's figures and tables and the
// ablations, printing each as aligned text tables and ASCII charts.
//
//   webcc-figures                          every figure, in registry order
//   webcc-figures --only=fig2,fig5 --jobs 4
//   webcc-figures --csv-dir=out            also write one CSV per table
//
// tests/golden/figures/ holds the expected stdout (one file per figure) and
// CSVs; the `golden` ctest byte-compares a fresh run against them.

#include <filesystem>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/figures.h"
#include "src/cli/args.h"
#include "src/core/report.h"
#include "src/util/str.h"
#include "src/workload/campus.h"
#include "src/workload/registry.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"

namespace webcc::bench {

FigureContext::FigureContext(size_t jobs, std::string csv_dir)
    : runner_(jobs), csv_dir_(std::move(csv_dir)) {}

const Workload& FigureContext::Worrell() { return SharedWorrellWorkload(WorrellConfig{}); }

const std::vector<Workload>& FigureContext::Traces() {
  if (traces_.empty()) {
    for (const auto& profile : CampusServerProfile::AllTable1()) {
      traces_.push_back(CompileTrace(GenerateCampusWorkload(profile).trace));
    }
  }
  return traces_;
}

const PaperGrid& FigureContext::WorrellGrid(std::optional<PaperGrid>& slot,
                                            const SimulationConfig& config) {
  if (!slot) {
    const Workload& load = Worrell();
    slot = PaperGrid{RunInvalidation(load, config).metrics,
                     runner_.SweepAlexThreshold(load, config, PaperThresholdPercents()),
                     runner_.SweepTtlHours(load, config, PaperTtlHours())};
  }
  return *slot;
}

const PaperGrid& FigureContext::BaseGrid() {
  return WorrellGrid(base_, SimulationConfig::Base(PolicyConfig::Invalidation()));
}

const PaperGrid& FigureContext::OptimizedGrid() {
  return WorrellGrid(optimized_, SimulationConfig::Optimized(PolicyConfig::Invalidation()));
}

const PaperGrid& FigureContext::TraceGrid() {
  if (!trace_) {
    const std::vector<Workload>& loads = Traces();
    const auto config = SimulationConfig::TraceDriven(PolicyConfig::Invalidation());
    // One task grid per protocol family: every (trace, point) pair is an
    // independent job, so all three traces fill the pool at once.
    std::vector<ConsistencyMetrics> inval_runs;
    for (const SimulationResult& run : runner_.RunInvalidationMany(loads, config)) {
      inval_runs.push_back(run.metrics);
    }
    trace_ = PaperGrid{
        AverageMetrics(inval_runs),
        AverageSeries(runner_.SweepAlexThresholdMany(loads, config, PaperThresholdPercents())),
        AverageSeries(runner_.SweepTtlHoursMany(loads, config, PaperTtlHours()))};
  }
  return *trace_;
}

void FigureContext::Emit(const TextTable& table, const std::string& name) {
  table.Render(std::cout);
  std::cout << "\n";
  if (csv_dir_.empty()) {
    return;
  }
  const std::string path = csv_dir_ + "/" + name + ".csv";
  if (!WriteCsvFile(table, path)) {
    std::cerr << "error: cannot write " << path << "\n";
    csv_failed_ = true;
  }
}

namespace {

struct Figure {
  std::string_view id;
  std::string_view title;
  void (*run)(FigureContext&);
};

// The registry, in the order a default run prints it.
constexpr Figure kFigures[] = {
    {"fig1", "hierarchical vs collapsed caching", Fig1},
    {"fig2", "bandwidth, base simulator", Fig2},
    {"fig3", "miss/stale rates, base simulator", Fig3},
    {"fig4", "bandwidth, optimized simulator", Fig4},
    {"fig5", "miss/stale rates, optimized simulator", Fig5},
    {"fig6", "bandwidth, trace-driven simulator", Fig6},
    {"fig7", "miss/stale rates, trace-driven simulator", Fig7},
    {"fig8", "server load, trace-driven simulator", Fig8},
    {"fig9", "staleness under message loss and origin downtime", Fig9},
    {"table1", "mutability statistics of the campus traces", Table1},
    {"table2", "file-type access mix, sizes, ages, and life-spans", Table2},
    {"ablation_selftuning", "self-tuning per-type thresholds", AblationSelftuning},
    {"ablation_wire_model", "43-byte control messages vs real HTTP/1.0", AblationWireModel},
    {"ablation_eviction", "LRU capacity vs unbounded caches", AblationEviction},
    {"ablation_latency", "round trips per request", AblationLatency},
    {"ablation_dynamic_content", "growing dynamic-content share", AblationDynamicContent},
    {"ablation_fleet", "one origin, N caches", AblationFleet},
    {"ablation_restart", "crash/restart recovery", AblationRestart},
    {"ablation_popularity_coupling", "popularity-mutability coupling",
     AblationPopularityCoupling},
};

std::string Usage() {
  std::string usage = R"(webcc-figures: the paper's figures and tables, plus the ablations

Usage: webcc-figures [flags]

  --only=ID[,ID...]      run only these figures (default: all, in the order
                         below; a selection also prints in that order)
  --csv-dir=DIR          also write each table as DIR/<name>.csv
  --jobs=N               sweep threads; 0 = auto, i.e. the WEBCC_JOBS env
                         var or the hardware thread count (default: 0).
                         Output is identical for any N
  --help                 this text

Figures:
)";
  for (const Figure& figure : kFigures) {
    usage += StrFormat("  %-28s %s\n", std::string(figure.id).c_str(),
                       std::string(figure.title).c_str());
  }
  return usage;
}

int Main(const std::vector<std::string>& args_vec) {
  ArgParser args(args_vec);
  if (!args.ok()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  if (args.GetBool("help")) {
    std::cout << Usage();
    return 0;
  }
  const std::string only = args.GetString("only", "");
  const std::string csv_dir = args.GetString("csv-dir", "");
  const size_t jobs = args.GetJobs(0);
  if (!args.ok()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  const std::vector<std::string> unused = args.UnusedFlags();
  if (!unused.empty()) {
    std::cerr << "error: unknown flag --" << unused.front() << " (see --help)\n";
    return 2;
  }
  if (!csv_dir.empty() && !std::filesystem::is_directory(csv_dir)) {
    std::cerr << "error: --csv-dir '" << csv_dir << "' is not a directory\n";
    return 2;
  }

  std::vector<bool> selected(std::size(kFigures), only.empty());
  if (!only.empty()) {
    for (const std::string_view id : Split(only, ',')) {
      size_t i = 0;
      while (i < std::size(kFigures) && kFigures[i].id != id) {
        ++i;
      }
      if (i == std::size(kFigures)) {
        std::cerr << "error: unknown figure '" << id << "' in --only (see --help)\n";
        return 2;
      }
      selected[i] = true;
    }
  }

  FigureContext ctx(jobs, csv_dir);
  for (size_t i = 0; i < std::size(kFigures); ++i) {
    if (selected[i]) {
      kFigures[i].run(ctx);
    }
  }
  return ctx.csv_failed() ? 1 : 0;
}

}  // namespace
}  // namespace webcc::bench

int main(int argc, char** argv) {
  return webcc::bench::Main(webcc::ArgsFromArgv(argc, argv));
}
