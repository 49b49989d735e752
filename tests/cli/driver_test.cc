#include "src/cli/driver.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/workload/campus.h"
#include "src/workload/trace.h"

namespace webcc {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunCli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = RunCliDriver(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(CliDriverTest, HelpPrintsUsage) {
  const CliResult result = RunCli({"--help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("--workload="), std::string::npos);
  EXPECT_NE(result.out.find("--policy="), std::string::npos);
  EXPECT_EQ(CliHelpText(), result.out);
}

TEST(CliDriverTest, DefaultRunWorks) {
  // Shrink the Worrell workload so the test stays fast.
  const CliResult result = RunCli({"--files=50", "--days=5", "--rps=0.02"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("workload: worrell"), std::string::npos);
  EXPECT_NE(result.out.find("alex(threshold=10%)"), std::string::npos);
  EXPECT_NE(result.out.find("requests="), std::string::npos);
}

TEST(CliDriverTest, CampusWorkloadAndTtlPolicy) {
  const CliResult result = RunCli({"--workload=fas", "--policy=ttl", "--ttl-hours=100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("workload: FAS"), std::string::npos);
  EXPECT_NE(result.out.find("ttl(100.0h)"), std::string::npos);
}

TEST(CliDriverTest, InvalidationPolicy) {
  const CliResult result = RunCli({"--workload=fas", "--policy=invalidation"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("stale=0.000%"), std::string::npos);
}

TEST(CliDriverTest, BaseModeAndColdCache) {
  const CliResult result = RunCli(
      {"--files=40", "--days=4", "--rps=0.02", "--mode=base", "--no-preload"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("base retrieval, cold cache"), std::string::npos);
}

TEST(CliDriverTest, SweepPrintsThreeTables) {
  const CliResult result = RunCli({"--workload=fas", "--sweep=ttl"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Bandwidth"), std::string::npos);
  EXPECT_NE(result.out.find("Miss/stale rates"), std::string::npos);
  EXPECT_NE(result.out.find("Server load"), std::string::npos);
  EXPECT_NE(result.out.find("TTL (hours)"), std::string::npos);
}

TEST(CliDriverTest, CsvSweepWritesFile) {
  const std::string csv = ::testing::TempDir() + "/webcc_cli_sweep.csv";
  const CliResult result = RunCli({"--workload=fas", "--sweep=alex", "--csv=" + csv});
  EXPECT_EQ(result.code, 0) << result.err;
  std::ifstream is(csv);
  EXPECT_TRUE(is.good());
}

TEST(CliDriverTest, TraceFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/webcc_cli_trace.txt";
  const auto generated = GenerateCampusWorkload(CampusServerProfile::Fas());
  ASSERT_TRUE(WriteTraceFile(generated.trace, path));
  const CliResult result =
      RunCli({"--workload=trace", "--trace-file=" + path, "--policy=alex", "--threshold=5"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("workload: FAS"), std::string::npos);
}

TEST(CliDriverTest, ErrorsAreDiagnosed) {
  EXPECT_EQ(RunCli({"--workload=nope"}).code, 2);
  EXPECT_NE(RunCli({"--workload=nope"}).err.find("unknown --workload"), std::string::npos);
  EXPECT_EQ(RunCli({"--policy=nope", "--workload=fas"}).code, 2);
  EXPECT_EQ(RunCli({"--workload=fas", "--mode=sideways"}).code, 2);
  EXPECT_EQ(RunCli({"--workload=trace"}).code, 2);  // missing --trace-file
  EXPECT_EQ(RunCli({"--workload=trace", "--trace-file=/nonexistent"}).code, 2);
  EXPECT_EQ(RunCli({"--workload=fas", "--sweep=sideways"}).code, 2);
  EXPECT_EQ(RunCli({"positional"}).code, 2);
}

TEST(CliDriverTest, SquidPolicyWiresClamps) {
  const CliResult result = RunCli({"--workload=hcs", "--policy=squid", "--threshold=20",
                                   "--min-hours=1", "--max-hours=72"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("alex(threshold=20%)"), std::string::npos);
}

TEST(CliDriverTest, ByTypeFlagPrintsBreakdown) {
  const CliResult result = RunCli({"--workload=hcs", "--policy=alex", "--by-type"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Per-file-type behaviour"), std::string::npos);
  EXPECT_NE(result.out.find("gif"), std::string::npos);
}

TEST(CliDriverTest, AnalyzeModePrintsStatsWithoutSimulating) {
  const CliResult result = RunCli({"--workload=hcs", "--analyze"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Mutability statistics"), std::string::npos);
  EXPECT_NE(result.out.find("File-type mix"), std::string::npos);
  // No simulation output.
  EXPECT_EQ(result.out.find("policy:"), std::string::npos);
}

TEST(CliDriverTest, SweepChartFlag) {
  const CliResult result = RunCli({"--workload=fas", "--sweep=alex", "--chart"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("(log scale)"), std::string::npos);
  EXPECT_NE(result.out.find("* alex"), std::string::npos);
}

TEST(CliDriverTest, ClfTraceFormat) {
  const std::string path = ::testing::TempDir() + "/webcc_cli_clf.log";
  {
    std::ofstream os(path);
    os << R"(local1.campus.edu - - [01/Jan/1996:09:00:00 +0000] "GET /a.html HTTP/1.0" 200 100 "Mon, 01 Jan 1996 03:00:00 GMT")"
       << "\n";
    os << R"(remote1.com - - [02/Jan/1996:10:00:00 +0000] "GET /a.html HTTP/1.0" 200 100 "Mon, 01 Jan 1996 03:00:00 GMT")"
       << "\n";
  }
  const CliResult result =
      RunCli({"--workload=trace", "--trace-file=" + path, "--trace-format=clf",
              "--local-suffix=.campus.edu", "--policy=ttl", "--ttl-hours=10"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("clf: 2 records"), std::string::npos);
  EXPECT_NE(result.out.find("2 requests"), std::string::npos);
}

TEST(CliDriverTest, ClfFormatErrors) {
  EXPECT_EQ(RunCli({"--workload=trace", "--trace-file=/nonexistent",
                    "--trace-format=clf"})
                .code,
            2);
  const std::string path = ::testing::TempDir() + "/webcc_cli_clf_empty.log";
  { std::ofstream os(path); os << "garbage\n"; }
  EXPECT_EQ(RunCli({"--workload=trace", "--trace-file=" + path, "--trace-format=clf"}).code, 2);
  EXPECT_EQ(
      RunCli({"--workload=trace", "--trace-file=" + path, "--trace-format=sideways"}).code, 2);
}

TEST(CliDriverTest, UnknownFlagRejected) {
  const CliResult result = RunCli({"--workload=fas", "--tresshold=5"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--tresshold"), std::string::npos);
}

TEST(CliDriverTest, NumericFlagBoundsRejected) {
  // Each bad flag must produce exit code 2 and a one-line diagnostic on
  // stderr — never a crash, a silent clamp, or a garbage run.
  struct Case {
    std::vector<std::string> args;
    const char* expect_in_err;
  };
  const std::vector<Case> cases = {
      {{"--workload=fas", "--jobs=-1"}, "--jobs"},
      {{"--workload=fas", "--jobs=5000"}, "--jobs"},
      {{"--workload=fas", "--jobs=99999999999999999999"}, "--jobs"},  // overflows int64
      {{"--workload=fas", "--jobs=two"}, "--jobs"},
      {{"--workload=fas", "--capacity-bytes=-5"}, "--capacity-bytes"},
      {{"--workload=fas", "--loss-rate=1.5"}, "--loss-rate"},
      {{"--workload=fas", "--loss-rate=-0.1"}, "--loss-rate"},
      {{"--workload=fas", "--loss-rate=nan"}, "--loss-rate"},
      {{"--workload=fas", "--retry-max=0"}, "--retry-max"},
      {{"--workload=fas", "--retry-max=101"}, "--retry-max"},
      {{"--workload=fas", "--recovery=sideways"}, "--recovery"},
      {{"--workload=fas", "--mtbf=1h"}, "--mttr"},  // must be given together
      {{"--workload=fas", "--policy=invalidation", "--lease=-3h"}, "duration"},
      {{"--workload=fas", "--retry-timeout=abc"}, "duration"},
      {{"--workload=fas", "--downtime=5q"}, "duration"},
      // Policy knobs are range-checked before any policy constructor's
      // WEBCC_CHECK can abort on them.
      {{"--workload=fas", "--policy=alex", "--threshold=-40"}, "--threshold"},
      {{"--workload=fas", "--policy=alex", "--threshold=nan"}, "--threshold"},
      {{"--workload=fas", "--policy=ttl", "--ttl-hours=-5"}, "--ttl-hours"},
      {{"--workload=fas", "--policy=ttl", "--ttl-hours=nan"}, "--ttl-hours"},
      {{"--workload=fas", "--policy=ttl", "--ttl-hours=1e300"}, "--ttl-hours"},  // overflows
      {{"--workload=fas", "--policy=cern", "--lm-fraction=-1"}, "--lm-fraction"},
      {{"--workload=fas", "--policy=squid", "--min-hours=5", "--max-hours=1"}, "--min-hours"},
      {{"--workload=fas", "--policy=adaptive", "--target-stale=-3"}, "--target-stale"},
      // Worrell overrides are checked before the generator sees them.
      {{"--rps=-1"}, "--rps"},
      {{"--rps=nan"}, "--rps"},
      {{"--rps=0"}, "--rps"},
      {{"--files=0"}, "--files"},
      {{"--files=99999999999"}, "--files"},  // past uint32_t
      {{"--days=-5"}, "--days"},
      {{"--days=0"}, "--days"},
      {{"--days=99999999999999"}, "--days"},  // overflows the timeline
      {{"--files=50", "--days=1000", "--rps=2000"}, "--rps"},  // 1.7e11 requests
  };
  for (const Case& c : cases) {
    const CliResult result = RunCli(c.args);
    EXPECT_EQ(result.code, 2) << c.args.back();
    EXPECT_NE(result.err.find(c.expect_in_err), std::string::npos)
        << c.args.back() << " -> " << result.err;
    EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1)
        << "diagnostic should be one line: " << result.err;
  }
}

TEST(CliDriverTest, FaultRunPrintsFailureSummary) {
  const CliResult result = RunCli({"--files=50", "--days=5", "--rps=0.02",
                                   "--policy=invalidation", "--loss-rate=0.1",
                                   "--cache-crash=2d"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("faults:"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("crashes=1"), std::string::npos) << result.out;
}

TEST(CliDriverTest, FaultRunsAreSeedReproducible) {
  const std::vector<std::string> args = {"--files=50", "--days=5",  "--rps=0.02",
                                         "--policy=invalidation",  "--loss-rate=0.2",
                                         "--fault-seed=99",        "--downtime-start=1d",
                                         "--downtime=6h"};
  const CliResult first = RunCli(args);
  const CliResult second = RunCli(args);
  EXPECT_EQ(first.code, 0) << first.err;
  EXPECT_EQ(first.out, second.out);
}

TEST(CliDriverTest, LeaseFlagChangesInvalidationDescription) {
  const CliResult result =
      RunCli({"--workload=fas", "--policy=invalidation", "--lease=12h"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("invalidation(lease=12h 0m 0s)"), std::string::npos) << result.out;
}

TEST(CliDriverTest, CapacityFlagPlumbs) {
  const CliResult result =
      RunCli({"--workload=fas", "--policy=ttl", "--capacity-bytes=100000", "--no-preload"});
  EXPECT_EQ(result.code, 0) << result.err;
  // A 100 KB cache on a multi-MB working set must evict.
  EXPECT_EQ(result.out.find("0 evictions"), std::string::npos);
}

}  // namespace
}  // namespace webcc
