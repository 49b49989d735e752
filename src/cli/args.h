// Minimal command-line flag parsing for the webcc command-line drivers.
//
// Syntax: --key=value or bare --flag (boolean true). Positional arguments
// are rejected; unknown flags are reported by the driver after it has
// consumed the ones it knows (Consume-then-CheckUnused pattern).

#ifndef WEBCC_SRC_CLI_ARGS_H_
#define WEBCC_SRC_CLI_ARGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/sim_time.h"

namespace webcc {

class ArgParser {
 public:
  // Parses argv-style arguments (excluding argv[0]). On syntax errors
  // (positional args, missing "--"), ok() is false and error() says why.
  explicit ArgParser(const std::vector<std::string>& args);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // Typed consumption; each marks the flag as used. A flag present with an
  // unparseable value records an error retrievable via error().
  std::string GetString(std::string_view name, std::string_view default_value);
  int64_t GetInt(std::string_view name, int64_t default_value);
  double GetDouble(std::string_view name, double default_value);
  // Bounded variants: a value outside [lo, hi] (or, for doubles, NaN/inf)
  // records an error like a malformed one, so no out-of-range value ever
  // reaches a caller that checks ok() before acting.
  int64_t GetIntInRange(std::string_view name, int64_t default_value, int64_t lo, int64_t hi);
  double GetDoubleInRange(std::string_view name, double default_value, double lo, double hi);
  // The --jobs flag every driver shares: a worker count in [0, kMaxJobs],
  // 0 meaning auto (WEBCC_JOBS, else the hardware thread count).
  size_t GetJobs(size_t default_value);
  bool GetBool(std::string_view name, bool default_value = false);
  // Duration with an optional unit suffix: "90s", "15m", "1.5h", "2d"; a
  // bare number means seconds. Rejects negatives, NaN/inf, junk suffixes,
  // and magnitudes that overflow the int64 seconds timeline.
  SimDuration GetDuration(std::string_view name, SimDuration default_value);

  // Wall-clock duration as nanoseconds: "250ms", "1.5s", "800us", "2m", or
  // a bare number meaning milliseconds. Rejects negatives, NaN/inf, junk
  // suffixes, and overflow. For the serve frontend's wall-clock knobs;
  // simulation flags keep the coarser whole-second GetDuration grammar.
  int64_t GetWallNanos(std::string_view name, int64_t default_ns);

  // The same grammar as GetDuration, for flags whose values embed durations
  // in structured text (e.g. the per-member "2:90s" fault knobs). Returns
  // nullopt on malformed input; no flag is consumed and no error recorded.
  static std::optional<SimDuration> ParseDurationText(std::string_view text);

  bool Has(std::string_view name) const;

  // Flags given on the command line but never consumed (typos).
  std::vector<std::string> UnusedFlags() const;

 private:
  struct Value {
    std::string text;
    bool used = false;
    bool bare = false;  // given without "=value"
  };
  std::map<std::string, Value, std::less<>> values_;
  std::string error_;
};

// argv minus argv[0] as ArgParser input, also accepting the spaced
// "--flag value" form: a --flag without "=" followed by a token that does
// not start with "--" takes that token as its value.
std::vector<std::string> ArgsFromArgv(int argc, char** argv);

}  // namespace webcc

#endif  // WEBCC_SRC_CLI_ARGS_H_
