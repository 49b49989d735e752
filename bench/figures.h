// Shared plumbing for webcc-figures, the one driver behind the paper's
// figures and tables and the ablations.
//
// Every figure is a function of a FigureContext. The context materializes
// each workload once per process and computes each of the three protocol
// grids once, so the figures that plot different columns of one grid
// (2/3, 4/5 and 6/7/8) share a single run. It also owns the output sink:
// tables go to stdout, and with --csv-dir each also lands as <name>.csv.
// Nothing a figure prints depends on --jobs or --csv-dir.

#ifndef WEBCC_BENCH_FIGURES_H_
#define WEBCC_BENCH_FIGURES_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"
#include "src/util/table.h"
#include "src/workload/workload.h"

namespace webcc::bench {

// One grid behind a pair of Figures 2–8: both sweep axes plus the
// invalidation baseline the figures plot them against.
struct PaperGrid {
  ConsistencyMetrics inval;
  SweepSeries alex;
  SweepSeries ttl;
};

class FigureContext {
 public:
  // jobs: sweep parallelism as SweepRunner takes it (0 = auto). csv_dir:
  // where Emit writes CSVs; empty writes none.
  FigureContext(size_t jobs, std::string csv_dir);

  [[nodiscard]] size_t jobs() const { return runner_.jobs(); }
  SweepRunner& runner() { return runner_; }

  // The paper-scale Worrell workload behind Figures 2–5 and 9 (2085 files,
  // 56 days, ~1.7M requests, ~19.9k changes).
  const Workload& Worrell();
  // The DAS, FAS and HCS campus traces behind Figures 6–8, rendered to logs
  // and recompiled (the full trace path).
  const std::vector<Workload>& Traces();

  // The Worrell grid in the base (Figures 2/3) and optimized (4/5)
  // simulators, and the trace-driven grid averaged over the three traces
  // (6/7/8). Each is computed on first use.
  const PaperGrid& BaseGrid();
  const PaperGrid& OptimizedGrid();
  const PaperGrid& TraceGrid();

  // Prints `table` and a blank line to stdout; with a CSV directory, also
  // writes <dir>/<name>.csv, reporting a failed write on stderr.
  void Emit(const TextTable& table, const std::string& name);
  [[nodiscard]] bool csv_failed() const { return csv_failed_; }

 private:
  const PaperGrid& WorrellGrid(std::optional<PaperGrid>& slot, const SimulationConfig& config);

  SweepRunner runner_;
  std::string csv_dir_;
  bool csv_failed_ = false;
  std::vector<Workload> traces_;
  std::optional<PaperGrid> base_;
  std::optional<PaperGrid> optimized_;
  std::optional<PaperGrid> trace_;
};

// The registry's entries, in registry order (webcc_figures.cc).
void Fig1(FigureContext& ctx);
void Fig2(FigureContext& ctx);
void Fig3(FigureContext& ctx);
void Fig4(FigureContext& ctx);
void Fig5(FigureContext& ctx);
void Fig6(FigureContext& ctx);
void Fig7(FigureContext& ctx);
void Fig8(FigureContext& ctx);
void Fig9(FigureContext& ctx);
void Table1(FigureContext& ctx);
void Table2(FigureContext& ctx);
void AblationSelftuning(FigureContext& ctx);
void AblationWireModel(FigureContext& ctx);
void AblationEviction(FigureContext& ctx);
void AblationLatency(FigureContext& ctx);
void AblationDynamicContent(FigureContext& ctx);
void AblationFleet(FigureContext& ctx);
void AblationRestart(FigureContext& ctx);
void AblationPopularityCoupling(FigureContext& ctx);

}  // namespace webcc::bench

#endif  // WEBCC_BENCH_FIGURES_H_
