// The webcc_sim command-line driver, as a testable library.
//
//   webcc_sim --workload=worrell --policy=alex --threshold=10
//   webcc_sim --workload=hcs --policy=ttl --ttl-hours=100 --mode=base
//   webcc_sim --workload=trace --trace-file=server.log --policy=invalidation
//   webcc_sim --workload=das --sweep=alex        # a whole figure series
//
// Run `webcc_sim --help` for the full flag list.

#ifndef WEBCC_SRC_CLI_DRIVER_H_
#define WEBCC_SRC_CLI_DRIVER_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/policy_factory.h"
#include "src/sim/fault_plan.h"
#include "src/workload/worrell.h"

namespace webcc {

class ArgParser;

// Consumes the policy-selection flags (--policy plus its per-policy knobs:
// --ttl-hours, --threshold, --min-hours/--max-hours, --lm-fraction,
// --target-stale, --lease). Shared by webcc-sim and webcc-serve so both
// accept the same policy grammar. Every numeric knob is range-checked here,
// before any policy constructor can see it; returns nullopt (with a
// one-line error) on an unknown policy or a malformed, non-finite, negative
// or oversized knob, which callers map to exit 2.
std::optional<PolicyConfig> ParsePolicyFlags(ArgParser& args, std::ostream& err);

// Consumes the Worrell workload overrides --files, --days, --rps and --seed
// over the defaults already in `config`. Shared by webcc-sim and webcc-gen.
// --files must be in [1, 10000000] and --days at least 1; --rps must be
// finite and above 0; and the run may expect at most 10^8 requests plus
// modifications, so no accepted value allocates without bound. Returns
// false (with a one-line error) otherwise, which callers map to exit 2.
bool ParseWorrellFlags(ArgParser& args, WorrellConfig& config, std::ostream& err);

// Executes one invocation. `args` excludes argv[0]. Returns the process
// exit code; human-readable output goes to `out`, diagnostics to `err`.
int RunCliDriver(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

// The --help text (exposed for tests).
std::string CliHelpText();

// Topology selected by --fleet=N / --hierarchy (default: one collapsed
// cache, the paper's single-proxy model).
enum class CliTopology { kSingle, kFleet, kHierarchy };

struct CliTopologySelection {
  CliTopology mode = CliTopology::kSingle;
  uint32_t fleet_size = 0;  // set when mode == kFleet
};

// Consumes --fleet/--hierarchy and the per-link fault knobs
// (--fleet-loss-rate/--fleet-jitter/--fleet-crash, --tier-*) into
// `faults.link_overrides`, validating member indices against the fleet
// size and tier names against the tree's three links. Shared by webcc-sim
// and webcc-chaos so both give the same one-line error; callers map a
// false return to exit 2.
bool ParseTopologyFaultFlags(ArgParser& args, FaultConfig& faults, CliTopologySelection& topo,
                             std::ostream& err);

}  // namespace webcc

#endif  // WEBCC_SRC_CLI_DRIVER_H_
