#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace treeplace {
namespace {

Options makeOptions(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesKeyValue) {
  const auto o = makeOptions({"--trees=12", "--mode=full"});
  EXPECT_EQ(o.getIntOr("trees", 0), 12);
  EXPECT_EQ(o.getOr("mode", ""), "full");
}

TEST(Cli, ParsesBareFlag) {
  const auto o = makeOptions({"--verbose"});
  EXPECT_TRUE(o.hasFlag("verbose"));
  EXPECT_FALSE(o.hasFlag("quiet"));
}

TEST(Cli, FalseyFlagValues) {
  const auto o = makeOptions({"--verbose=0"});
  EXPECT_FALSE(o.hasFlag("verbose"));
}

TEST(Cli, Positionals) {
  const auto o = makeOptions({"input.txt", "--x=1", "more"});
  ASSERT_EQ(o.positionals().size(), 2u);
  EXPECT_EQ(o.positionals()[0], "input.txt");
  EXPECT_EQ(o.positionals()[1], "more");
}

TEST(Cli, DefaultsWhenMissing) {
  const auto o = makeOptions({});
  EXPECT_EQ(o.getIntOr("trees", 30), 30);
  EXPECT_DOUBLE_EQ(o.getDoubleOr("lambda", 0.5), 0.5);
  EXPECT_FALSE(o.get("anything").has_value());
}

TEST(Cli, EnvironmentFallback) {
  ::setenv("TREEPLACE_FROM_ENV", "77", 1);
  const auto o = makeOptions({});
  EXPECT_EQ(o.getIntOr("from-env", 0), 77);
  ::unsetenv("TREEPLACE_FROM_ENV");
}

TEST(Cli, CommandLineBeatsEnvironment) {
  ::setenv("TREEPLACE_TREES", "5", 1);
  const auto o = makeOptions({"--trees=9"});
  EXPECT_EQ(o.getIntOr("trees", 0), 9);
  ::unsetenv("TREEPLACE_TREES");
}

// Lenient parsers accepted "--watchdog=4x" as 4 — a typo'd deadline multiplier
// silently changed service behaviour. The strict getters must reject anything
// that is not entirely a number, with the option name in the message.
TEST(Cli, RejectsTrailingGarbageInteger) {
  const auto o = makeOptions({"--trees=12abc"});
  try {
    (void)o.getIntOr("trees", 0);
    FAIL() << "trailing garbage accepted";
  } catch (const OptionError& e) {
    EXPECT_NE(std::string(e.what()).find("trees"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12abc"), std::string::npos);
  }
}

TEST(Cli, RejectsTrailingGarbageDouble) {
  const auto o = makeOptions({"--watchdog=4x"});
  EXPECT_THROW((void)o.getDoubleOr("watchdog", 1.0), OptionError);
}

TEST(Cli, RejectsNonNumeric) {
  const auto o = makeOptions({"--trees=lots", "--lambda=fast"});
  EXPECT_THROW((void)o.getIntOr("trees", 0), OptionError);
  EXPECT_THROW((void)o.getDoubleOr("lambda", 0.5), OptionError);
}

TEST(Cli, RejectsEmptyNumericValue) {
  const auto o = makeOptions({"--trees=", "--lambda="});
  EXPECT_THROW((void)o.getIntOr("trees", 0), OptionError);
  EXPECT_THROW((void)o.getDoubleOr("lambda", 0.5), OptionError);
}

TEST(Cli, RejectsOutOfRangeInteger) {
  const auto o = makeOptions({"--trees=99999999999999999999999999"});
  try {
    (void)o.getIntOr("trees", 0);
    FAIL() << "out-of-range integer accepted";
  } catch (const OptionError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Cli, RejectsOutOfRangeDouble) {
  const auto o = makeOptions({"--lambda=1e5000"});
  EXPECT_THROW((void)o.getDoubleOr("lambda", 0.5), OptionError);
}

TEST(Cli, RejectsFloatForInteger) {
  const auto o = makeOptions({"--trees=3.5"});
  EXPECT_THROW((void)o.getIntOr("trees", 0), OptionError);
}

TEST(Cli, StillAcceptsWellFormedNumbers) {
  const auto o = makeOptions({"--a=-42", "--b=+7", "--c=2.5e-3", "--d=-0.125"});
  EXPECT_EQ(o.getIntOr("a", 0), -42);
  // from_chars does not take a leading '+': document that by rejecting it.
  EXPECT_THROW((void)o.getIntOr("b", 0), OptionError);
  EXPECT_DOUBLE_EQ(o.getDoubleOr("c", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(o.getDoubleOr("d", 0.0), -0.125);
}

// Malformed environment values go through the same strict path.
TEST(Cli, RejectsGarbageFromEnvironment) {
  ::setenv("TREEPLACE_ENV_GARBAGE", "7seven", 1);
  const auto o = makeOptions({});
  EXPECT_THROW((void)o.getIntOr("env-garbage", 0), OptionError);
  ::unsetenv("TREEPLACE_ENV_GARBAGE");
}

// Comma lists (bench size sweeps) go through the same strict integer parser,
// token by token; an empty token is a typo, not a skipped entry.
TEST(Cli, IntListParsesEveryToken) {
  const auto o = makeOptions({"--sizes=200,400,-3"});
  EXPECT_EQ(o.getIntListOr("sizes", {1}), (std::vector<std::int64_t>{200, 400, -3}));
  EXPECT_EQ(o.getIntListOr("absent", {5, 6}), (std::vector<std::int64_t>{5, 6}));
  EXPECT_EQ(makeOptions({"--sizes=7"}).getIntListOr("sizes", {}),
            (std::vector<std::int64_t>{7}));
}

TEST(Cli, IntListRejectsGarbageTokens) {
  for (const char* bad : {"--sizes=abc", "--sizes=200,4x", "--sizes=200,3.5",
                          "--sizes=200,99999999999999999999999"}) {
    const auto o = makeOptions({bad});
    try {
      (void)o.getIntListOr("sizes", {});
      FAIL() << bad << " accepted";
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(e.what()).find("sizes"), std::string::npos) << bad;
    }
  }
}

TEST(Cli, IntListRejectsEmptyTokens) {
  for (const char* bad : {"--sizes=", "--sizes=200,,400", "--sizes=200,", "--sizes=,200"})
    EXPECT_THROW((void)makeOptions({bad}).getIntListOr("sizes", {}), OptionError) << bad;
}

int throwsOptionError(int, char**) { throw OptionError("option --x=y: bad"); }
int returnsSeven(int, char**) { return 7; }

TEST(Cli, RunCliTurnsOptionErrorsIntoExitTwo) {
  char name[] = "prog";
  char* argv[] = {name, nullptr};
  EXPECT_EQ(runCli(1, argv, returnsSeven), 7);
  testing::internal::CaptureStderr();
  EXPECT_EQ(runCli(1, argv, throwsOptionError), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--x=y"), std::string::npos);
}

}  // namespace
}  // namespace treeplace
