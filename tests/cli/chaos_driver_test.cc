// In-process coverage of the webcc-chaos driver: every malformed campaign
// flag exits 2 with a one-line diagnostic before any trial (or thread)
// starts, and a small well-formed campaign runs to its summary.

#include "src/cli/chaos_driver.h"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

namespace webcc {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunChaos(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = RunChaosCliDriver(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(ChaosCliDriverTest, MalformedCampaignFlagsRejected) {
  struct Case {
    std::string arg;
    const char* expect_in_err;
  };
  const std::vector<Case> cases = {
      {"--jobs=-1", "--jobs"},
      {"--jobs=4097", "--jobs"},
      {"--jobs=99999999999999999999", "--jobs"},  // overflows int64
      {"--jobs=two", "--jobs"},
      {"--seeds=0", "--seeds"},
      {"--seeds=-1", "--seeds"},
      {"--seeds=1000001", "--seeds"},
      {"--trials=-3", "--trials"},
      {"--max-shrink-runs=-1", "--max-shrink-runs"},
      {"--max-shrink-runs=1000001", "--max-shrink-runs"},
      {"--fleet=1", "--fleet"},
      {"--sedes=5", "--sedes"},
  };
  for (const Case& c : cases) {
    const CliResult result = RunChaos({c.arg});
    EXPECT_EQ(result.code, 2) << c.arg;
    EXPECT_NE(result.err.find(c.expect_in_err), std::string::npos)
        << c.arg << " -> " << result.err;
    EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1)
        << "diagnostic should be one line: " << result.err;
    EXPECT_EQ(result.out, "") << c.arg;
  }
}

TEST(ChaosCliDriverTest, SmallCampaignRunsToSummary) {
  const CliResult result = RunChaos({"--seeds=3", "--seed=7", "--jobs=1", "--repro-dir="});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("trials=3"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("all invariants held"), std::string::npos) << result.out;
}

}  // namespace
}  // namespace webcc
