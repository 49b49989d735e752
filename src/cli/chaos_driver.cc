#include "src/cli/chaos_driver.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/cli/args.h"
#include "src/cli/driver.h"

namespace webcc {
namespace {

// Campaign size bounds: every trial owns an outcome slot, and a shrink may
// spend at most this many extra simulation runs.
constexpr int64_t kMaxTrials = 1'000'000;
constexpr int64_t kMaxShrinkRuns = 1'000'000;

constexpr const char kUsage[] = R"(webcc-chaos: randomized chaos campaigns under the consistency oracle

Usage: webcc-chaos [flags]

Campaign:
  --seeds=N              trials to run (alias: --trials)     (default: 100)
  --seed=N               campaign seed; trial i derives from
                         (seed, i), so runs are reproducible  (default: 1)
  --jobs=N               shard trials over N threads; 0 = auto, i.e. the
                         WEBCC_JOBS env var or the hardware thread count.
                         Results are identical for any N       (default: 1)
  --repro-dir=PATH       where violation artifacts are written
                         (default: chaos-repros; empty = skip)
  --no-shrink            keep violating trials as generated
  --max-shrink-runs=N    simulation budget per shrink         (default: 60)

Topology pinning (default: the generator samples single, fleet, and
hierarchy trials; pinning runs the whole campaign in one topology):
  --fleet=N              every trial is a fleet of N members (N in [2, 4096])
  --hierarchy            every trial is the two-level tree

Forced per-link faults, appended to every trial's generated schedule
(comma-separated TARGET:VALUE; same grammar and validation as webcc-sim):
  --fleet-loss-rate=M:F --fleet-jitter=M:DUR --fleet-crash=M:DUR
                         member-targeted knobs (require --fleet=N)
  --tier-loss-rate=LINK:F --tier-jitter=LINK:DUR --tier-crash=LINK:DUR
                         tier-targeted knobs, LINK = l2|l1a|l1b
                         (require --hierarchy)

Replay:
  --replay=PATH          re-run one repro artifact under the oracle and
                         report whether the violation still reproduces

Other:
  --help                 this text
)";

int RunReplay(const std::string& path, std::ostream& out, std::ostream& err) {
  const ReplayOutcome outcome = ReplayRepro(path);
  if (!outcome.parsed) {
    err << "error: " << path << ": " << outcome.error << "\n";
    return 1;
  }
  out << "replaying " << path << "\n  " << outcome.description << "\n";
  if (!outcome.violation.has_value()) {
    out << "result: PASS (the trial no longer violates)\n";
    return 0;
  }
  out << "result: VIOLATION [" << outcome.violation->invariant << "] "
      << outcome.violation->message << "\n";
  return 1;
}

}  // namespace

int RunChaosCliDriver(const std::vector<std::string>& args_vec, std::ostream& out,
                      std::ostream& err) {
  ArgParser args(args_vec);
  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  if (args.GetBool("help")) {
    out << kUsage;
    return 0;
  }

  const std::string replay = args.GetString("replay", "");

  ChaosOptions options;
  const int64_t trials = args.GetIntInRange(
      "trials", static_cast<int64_t>(options.trials), 1, kMaxTrials);
  options.trials = static_cast<uint64_t>(args.GetIntInRange("seeds", trials, 1, kMaxTrials));
  options.seed =
      static_cast<uint64_t>(args.GetInt("seed", static_cast<int64_t>(options.seed)));
  options.jobs = args.GetJobs(1);
  options.repro_dir = args.GetString("repro-dir", options.repro_dir);
  options.shrink = !args.GetBool("no-shrink");
  options.max_shrink_runs = static_cast<int>(
      args.GetIntInRange("max-shrink-runs", options.max_shrink_runs, 0, kMaxShrinkRuns));

  // --fleet/--hierarchy/--fleet-*/--tier-*: the validation (and its error
  // text) is shared with webcc-sim via ParseTopologyFaultFlags.
  FaultConfig forced;
  CliTopologySelection topo;
  if (!ParseTopologyFaultFlags(args, forced, topo, err)) {
    return 2;
  }
  switch (topo.mode) {
    case CliTopology::kSingle:
      break;  // no pin: the generator samples all three topologies
    case CliTopology::kFleet:
      options.topology = Topology::kFleet;
      options.fleet_size = topo.fleet_size;
      break;
    case CliTopology::kHierarchy:
      options.topology = Topology::kHierarchy;
      break;
  }
  options.link_overrides = std::move(forced.link_overrides);

  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  const std::vector<std::string> unused = args.UnusedFlags();
  if (!unused.empty()) {
    err << "error: unknown flag --" << unused.front() << " (see --help)\n";
    return 2;
  }

  if (!replay.empty()) {
    return RunReplay(replay, out, err);
  }

  const CampaignResult result = RunChaosCampaign(options);
  out << result.Summary();
  return result.ok() ? 0 : 1;
}

}  // namespace webcc

