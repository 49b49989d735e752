// The webcc-chaos command-line driver, as a testable library.
//
//   webcc-chaos --seeds 500 --jobs 8        run a campaign
//   webcc-chaos --replay=chaos-repros/seed-1-trial-7.repro
//
// Randomized fault-schedule campaigns under the consistency oracle, with
// automatic shrinking and replayable repro artifacts (src/chaos/). Exit
// status: 0 when every trial passes (or a replayed repro no longer
// violates), 1 on any confirmed violation or unreadable repro file, 2 on
// malformed flags (one-line error, same contract as webcc-sim). Run
// `webcc-chaos --help` for the flag list.

#ifndef WEBCC_SRC_CLI_CHAOS_DRIVER_H_
#define WEBCC_SRC_CLI_CHAOS_DRIVER_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace webcc {

// Executes one invocation. `args` excludes argv[0]. Returns the process
// exit code; human-readable output goes to `out`, diagnostics to `err`.
int RunChaosCliDriver(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err);

}  // namespace webcc

#endif  // WEBCC_SRC_CLI_CHAOS_DRIVER_H_
