#include "src/cli/gen_driver.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/workload/clf.h"
#include "src/workload/trace.h"

namespace webcc {
namespace {

struct GenResult {
  int code = 0;
  std::string out;
  std::string err;
};

GenResult RunGen(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  GenResult result;
  result.code = RunGenDriver(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(GenDriverTest, HelpText) {
  const GenResult result = RunGen({"--help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_EQ(result.out, GenHelpText());
  EXPECT_NE(result.out.find("--profile="), std::string::npos);
}

TEST(GenDriverTest, RequiresOutPath) {
  const GenResult result = RunGen({"--profile=fas"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--out"), std::string::npos);
}

TEST(GenDriverTest, GeneratesCampusTrace) {
  const std::string path = ::testing::TempDir() + "/webcc_gen_fas.trace";
  const GenResult result = RunGen({"--profile=fas", "--out=" + path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("generated FAS"), std::string::npos);
  const auto trace = ReadTraceFile(path);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->records.size(), 56660u);
}

TEST(GenDriverTest, GeneratesWorrellTraceWithOverrides) {
  const std::string path = ::testing::TempDir() + "/webcc_gen_worrell.trace";
  const GenResult result = RunGen(
      {"--profile=worrell", "--files=50", "--days=3", "--rps=0.01", "--out=" + path});
  EXPECT_EQ(result.code, 0) << result.err;
  const auto trace = ReadTraceFile(path);
  ASSERT_TRUE(trace.has_value());
  EXPECT_GT(trace->records.size(), 1000u);
  const Workload load = CompileTrace(*trace);
  EXPECT_EQ(load.objects.size(), 50u);
}

TEST(GenDriverTest, ClfOutputRoundTripsThroughClfReader) {
  const std::string path = ::testing::TempDir() + "/webcc_gen_fas.log";
  ASSERT_EQ(RunGen({"--profile=fas", "--format=clf", "--out=" + path}).code, 0);
  ClfParseOptions options;
  options.local_suffix = ".campus.edu";
  ClfReadStats stats;
  const auto trace = ReadClfTraceFile(path, options, &stats);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(stats.skipped_malformed, 0u);
  EXPECT_EQ(trace->records.size(), 56660u);
  // Remote split survives the round trip approximately (39% for FAS).
  uint64_t remote = 0;
  for (const auto& record : trace->records) {
    remote += record.remote ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(remote) / static_cast<double>(trace->records.size()), 0.39,
              0.02);
}

TEST(GenDriverTest, SeedChangesOutput) {
  const std::string a = ::testing::TempDir() + "/webcc_gen_a.trace";
  const std::string b = ::testing::TempDir() + "/webcc_gen_b.trace";
  ASSERT_EQ(RunGen({"--profile=worrell", "--files=20", "--days=2", "--rps=0.01", "--seed=1",
                    "--out=" + a})
                .code,
            0);
  ASSERT_EQ(RunGen({"--profile=worrell", "--files=20", "--days=2", "--rps=0.01", "--seed=2",
                    "--out=" + b})
                .code,
            0);
  const auto ta = ReadTraceFile(a);
  const auto tb = ReadTraceFile(b);
  ASSERT_TRUE(ta && tb);
  EXPECT_NE(ta->records.size(), tb->records.size());
}

TEST(GenDriverTest, ErrorsDiagnosed) {
  EXPECT_EQ(RunGen({"--profile=nope", "--out=/tmp/x"}).code, 2);
  EXPECT_EQ(RunGen({"--profile=fas", "--out=/tmp/x", "--format=nope"}).code, 2);
  EXPECT_EQ(RunGen({"--profile=fas", "--out=/nonexistent/dir/x"}).code, 1);
  EXPECT_EQ(RunGen({"--profile=fas", "--out=/tmp/x", "--bogus"}).code, 2);
  EXPECT_EQ(RunGen({"positional"}).code, 2);
  // Worrell overrides exit 2 with a one-line error naming the flag.
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--rps=-1"},
                                             {"--rps=nan"},
                                             {"--files=0"},
                                             {"--days=-3"},
                                             {"--days=14", "--rps=1e6"}}) {
    std::vector<std::string> args = {"--profile=worrell", "--out=/nonexistent/dir/x"};
    args.insert(args.end(), bad.begin(), bad.end());
    const GenResult result = RunGen(args);
    EXPECT_EQ(result.code, 2) << bad.back();
    const std::string flag = bad.back().substr(0, bad.back().find('='));
    EXPECT_NE(result.err.find(flag), std::string::npos) << result.err;
    EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1) << result.err;
  }
}

}  // namespace
}  // namespace webcc
