#include "src/cli/args.h"

#include <gtest/gtest.h>

namespace webcc {
namespace {

TEST(ArgParserTest, ParsesKeyValueAndBareFlags) {
  ArgParser args({"--policy=alex", "--threshold=25", "--verbose"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.GetString("policy", "x"), "alex");
  EXPECT_EQ(args.GetInt("threshold", 0), 25);
  EXPECT_TRUE(args.GetBool("verbose"));
}

TEST(ArgParserTest, DefaultsWhenAbsent) {
  ArgParser args({});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.GetString("policy", "ttl"), "ttl");
  EXPECT_EQ(args.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.GetDouble("x", 2.5), 2.5);
  EXPECT_FALSE(args.GetBool("flag"));
  EXPECT_TRUE(args.GetBool("flag", true));
}

TEST(ArgParserTest, RejectsPositionalArguments) {
  ArgParser args({"positional"});
  EXPECT_FALSE(args.ok());
  EXPECT_NE(args.error().find("positional"), std::string::npos);
}

TEST(ArgParserTest, RejectsBareDoubleDash) {
  ArgParser args({"--"});
  EXPECT_FALSE(args.ok());
}

TEST(ArgParserTest, RejectsEmptyName) {
  ArgParser args({"--=5"});
  EXPECT_FALSE(args.ok());
}

TEST(ArgParserTest, TypeErrorsReported) {
  ArgParser args({"--n=abc"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.GetInt("n", 3), 3);
  EXPECT_FALSE(args.ok());
  EXPECT_NE(args.error().find("integer"), std::string::npos);
}

TEST(ArgParserTest, DoubleParsing) {
  ArgParser args({"--x=0.35", "--bad=zz"});
  EXPECT_DOUBLE_EQ(args.GetDouble("x", 0), 0.35);
  args.GetDouble("bad", 0);
  EXPECT_FALSE(args.ok());
}

TEST(ArgParserTest, BoolValueForms) {
  ArgParser args({"--a=true", "--b=FALSE", "--c=1", "--d=0", "--e=maybe"});
  EXPECT_TRUE(args.GetBool("a"));
  EXPECT_FALSE(args.GetBool("b", true));
  EXPECT_TRUE(args.GetBool("c"));
  EXPECT_FALSE(args.GetBool("d", true));
  args.GetBool("e");
  EXPECT_FALSE(args.ok());
}

TEST(ArgParserTest, UnusedFlagsDetected) {
  ArgParser args({"--used=1", "--typo=2"});
  args.GetInt("used", 0);
  const auto unused = args.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgParserTest, LastOccurrenceWins) {
  ArgParser args({"--n=1", "--n=2"});
  EXPECT_EQ(args.GetInt("n", 0), 2);
}

TEST(ArgParserTest, ValueMayContainEquals) {
  ArgParser args({"--query=a=b"});
  EXPECT_EQ(args.GetString("query", ""), "a=b");
}

TEST(ArgParserTest, DurationUnits) {
  ArgParser args({"--a=90s", "--b=15m", "--c=1.5h", "--d=2d", "--e=45"});
  EXPECT_EQ(args.GetDuration("a", SimDuration(0)), Seconds(90));
  EXPECT_EQ(args.GetDuration("b", SimDuration(0)), Minutes(15));
  EXPECT_EQ(args.GetDuration("c", SimDuration(0)), Seconds(5400));
  EXPECT_EQ(args.GetDuration("d", SimDuration(0)), Days(2));
  EXPECT_EQ(args.GetDuration("e", SimDuration(0)), Seconds(45));  // bare number = seconds
  EXPECT_TRUE(args.ok());
}

TEST(ArgParserTest, DurationDefaultsWhenAbsent) {
  ArgParser args({});
  EXPECT_EQ(args.GetDuration("missing", Minutes(5)), Minutes(5));
  EXPECT_TRUE(args.ok());
}

TEST(ArgParserTest, DurationRejectsMalformedInput) {
  const std::vector<std::string> bad = {"-5s", "abc", "5q",    "s",   "",
                                        "nan", "inf", "1e30d", "--5m", "infs"};
  for (const std::string& text : bad) {
    ArgParser args({"--t=" + text});
    args.GetDuration("t", SimDuration(0));
    EXPECT_FALSE(args.ok()) << "accepted '" << text << "'";
    EXPECT_NE(args.error().find("duration"), std::string::npos) << text;
  }
}

TEST(ArgParserTest, DurationRejectsOverflow) {
  // 5e18 seconds overflows the int64 timeline budget even before unit scaling.
  ArgParser args({"--t=5000000000000000000"});
  args.GetDuration("t", SimDuration(0));
  EXPECT_FALSE(args.ok());
}

TEST(ArgParserTest, RangeGettersRejectOutOfRangeValues) {
  ArgParser args({"--n=7", "--x=0.5"});
  EXPECT_EQ(args.GetIntInRange("n", 0, 0, 10), 7);
  EXPECT_DOUBLE_EQ(args.GetDoubleInRange("x", 0, 0, 1), 0.5);
  EXPECT_TRUE(args.ok());
  for (const char* text : {"11", "-1", "abc"}) {
    ArgParser bad({std::string("--n=") + text});
    EXPECT_EQ(bad.GetIntInRange("n", 3, 0, 10), 3) << text;
    EXPECT_NE(bad.error().find("--n must be an integer in [0, 10]"), std::string::npos) << text;
  }
  for (const char* text : {"nan", "inf", "-0.5", "1.5"}) {
    ArgParser bad({std::string("--x=") + text});
    EXPECT_DOUBLE_EQ(bad.GetDoubleInRange("x", 0.25, 0, 1), 0.25) << text;
    EXPECT_FALSE(bad.ok()) << text;
  }
}

TEST(ArgParserTest, ArgsFromArgvJoinsSpacedValues) {
  char prog[] = "prog";
  char jobs[] = "--jobs";
  char minus_one[] = "-1";
  char only[] = "--only=fig2";
  char help[] = "--help";
  char* argv[] = {prog, jobs, minus_one, only, help};
  EXPECT_EQ(ArgsFromArgv(5, argv),
            (std::vector<std::string>{"--jobs=-1", "--only=fig2", "--help"}));
}

}  // namespace
}  // namespace webcc
