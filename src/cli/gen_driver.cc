#include "src/cli/gen_driver.h"

#include <ostream>

#include "src/cli/args.h"
#include "src/cli/driver.h"
#include "src/util/str.h"
#include "src/workload/analyzer.h"
#include "src/workload/campus.h"
#include "src/workload/clf.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"

namespace webcc {

namespace {

constexpr std::string_view kHelp = R"(webcc-gen — synthesize calibrated cache-consistency traces

  --profile=das|fas|hcs|worrell   which workload to synthesize (default: hcs)
  --out=PATH                      output file (required)
  --format=webcc|clf              trace format (default: webcc)
  --seed=N                        generator seed override
  --files=N --days=N --rps=X      worrell profile overrides
  --help                          this text

The campus profiles replay the paper's Table 1 calibration; worrell is the
synthetic flat-lifetime workload of Figures 2-5. Output feeds webcc-sim via
  webcc-sim --workload=trace --trace-file=PATH [--trace-format=clf]
)";

}  // namespace

std::string GenHelpText() { return std::string(kHelp); }

int RunGenDriver(const std::vector<std::string>& args_vec, std::ostream& out,
                 std::ostream& err) {
  ArgParser args(args_vec);
  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  if (args.GetBool("help")) {
    out << kHelp;
    return 0;
  }

  const std::string profile_name = ToLower(args.GetString("profile", "hcs"));
  const std::string out_path = args.GetString("out", "");
  const std::string format = ToLower(args.GetString("format", "webcc"));
  if (out_path.empty()) {
    err << "error: --out=PATH is required\n";
    return 2;
  }
  if (format != "webcc" && format != "clf") {
    err << "error: unknown --format '" << format << "'\n";
    return 2;
  }

  Trace trace;
  if (profile_name == "das" || profile_name == "fas" || profile_name == "hcs") {
    CampusServerProfile profile = profile_name == "das"   ? CampusServerProfile::Das()
                                  : profile_name == "fas" ? CampusServerProfile::Fas()
                                                          : CampusServerProfile::Hcs();
    if (args.Has("seed")) {
      profile.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
    }
    const auto result = GenerateCampusWorkload(profile);
    trace = result.trace;
    const MutabilityStats stats = AnalyzeWorkloadMutability(result.workload);
    out << "generated " << profile.name << ": " << stats.files << " files, " << stats.requests
        << " requests, " << stats.total_changes << " changes ("
        << FormatPercent(stats.mutable_fraction, 2) << " mutable)\n";
  } else if (profile_name == "worrell") {
    WorrellConfig config;
    config.num_files = 500;
    config.duration = Days(14);
    config.requests_per_second = 0.1;
    if (!ParseWorrellFlags(args, config, err)) {
      return 2;
    }
    const Workload load = GenerateWorrellWorkload(config);
    trace = RenderTraceFromWorkload(load, "worrell");
    out << "generated worrell: " << load.objects.size() << " files, " << load.requests.size()
        << " requests, " << load.modifications.size() << " changes\n";
  } else {
    err << "error: unknown --profile '" << profile_name << "'\n";
    return 2;
  }

  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  const auto unused = args.UnusedFlags();
  if (!unused.empty()) {
    err << "error: unknown flag --" << unused.front() << " (see --help)\n";
    return 2;
  }

  const bool written = format == "clf" ? WriteClfTraceFile(trace, out_path)
                                       : WriteTraceFile(trace, out_path);
  if (!written) {
    err << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << "wrote " << trace.records.size() << " records to " << out_path << " (" << format
      << " format)\n";
  return 0;
}

}  // namespace webcc
