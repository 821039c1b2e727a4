#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace adacheck::util {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::vector<std::string> allowed = {}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(),
                 std::move(allowed));
}

TEST(CliArgs, EqualsForm) {
  const auto args = parse({"--runs=500", "--seed=42"});
  EXPECT_EQ(args.get_int("runs", 0), 500);
  EXPECT_EQ(args.get_int("seed", 0), 42);
}

TEST(CliArgs, SpaceForm) {
  const auto args = parse({"--runs", "500"});
  EXPECT_EQ(args.get_int("runs", 0), 500);
}

TEST(CliArgs, BooleanSwitch) {
  const auto args = parse({"--fast", "--verbose=false"});
  EXPECT_TRUE(args.get_bool("fast", false));
  EXPECT_FALSE(args.get_bool("verbose", true));
  EXPECT_TRUE(args.get_bool("absent", true));
}

TEST(CliArgs, DoublesAndStrings) {
  const auto args = parse({"--lambda=1.4e-3", "--csv=out.csv"});
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 1.4e-3);
  EXPECT_EQ(args.get_string("csv", ""), "out.csv");
}

TEST(CliArgs, PositionalArgsCollected) {
  const auto args = parse({"input.txt", "--runs=3", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(CliArgs, AllowedListRejectsUnknown) {
  EXPECT_THROW(parse({"--oops=1"}, {"runs"}), std::invalid_argument);
  EXPECT_NO_THROW(parse({"--runs=1"}, {"runs"}));
}

TEST(CliArgs, UnknownFlagErrorListsAllowedFlagsAndSuggests) {
  try {
    parse({"--thread=4"}, {"runs", "seed", "threads"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag --thread"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --threads?"), std::string::npos)
        << what;
    EXPECT_NE(what.find("allowed flags: --runs, --seed, --threads"),
              std::string::npos)
        << what;
  }
  try {
    parse({"--zzz"}, {"runs"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Nothing close: no suggestion, but the allowed list still prints.
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
    EXPECT_NE(what.find("allowed flags: --runs"), std::string::npos) << what;
  }
}

TEST(CliArgs, DeclaredBooleanSwitchNeverConsumesThePositional) {
  // "dry-run!" declares a switch: the following token stays positional.
  const auto args =
      parse({"run", "--dry-run", "file.json"}, {"dry-run!", "runs"});
  EXPECT_TRUE(args.get_bool("dry-run", false));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[1], "file.json");
  // Explicit =value still works, and undeclared flags keep consuming.
  EXPECT_FALSE(parse({"--dry-run=false"}, {"dry-run!"})
                   .get_bool("dry-run", true));
  EXPECT_EQ(parse({"--runs", "5"}, {"dry-run!", "runs"}).get_int("runs", 0),
            5);
}

TEST(CliArgs, SubcommandPeeksTheFirstPositional) {
  const char* run[] = {"adacheck", "run", "scenario.json", "--runs=5"};
  EXPECT_EQ(CliArgs::subcommand(4, run), "run");
  const char* flag_first[] = {"adacheck", "--help"};
  EXPECT_EQ(CliArgs::subcommand(2, flag_first), "");
  const char* bare[] = {"adacheck"};
  EXPECT_EQ(CliArgs::subcommand(1, bare), "");
  // The verb is not consumed: it stays positional()[0].
  const CliArgs args(4, run, {"runs"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "scenario.json");
}

TEST(CliArgs, MalformedNumbersThrow) {
  const auto args = parse({"--runs=abc", "--x=1.2.3"});
  EXPECT_THROW(args.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("runs", false), std::invalid_argument);
}

TEST(CliArgs, HasAndGet) {
  const auto args = parse({"--a=1"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_FALSE(args.has("b"));
  EXPECT_EQ(args.get("a").value(), "1");
  EXPECT_FALSE(args.get("b").has_value());
}

/// run_tool on `argv` (after a "/path/to/tool" argv[0]); returns the
/// exit code and leaves what it wrote to stderr in `err`.
int run_tool_on(std::vector<const char*> argv,
                const std::function<int(const CliArgs&)>& body,
                std::string& err) {
  argv.insert(argv.begin(), "/path/to/tool");
  testing::internal::CaptureStderr();
  const int code = run_tool(static_cast<int>(argv.size()), argv.data(),
                            {"runs", "fast!"}, body);
  err = testing::internal::GetCapturedStderr();
  return code;
}

TEST(RunTool, PassesParsedArgsAndExitCodeThrough) {
  std::string err;
  const int code = run_tool_on(
      {"--runs=7", "--fast"},
      [](const CliArgs& args) {
        return args.get_bool("fast", false) ? args.get_int("runs", 0) : -1;
      },
      err);
  EXPECT_EQ(code, 7);
  EXPECT_EQ(err, "");
}

TEST(RunTool, HelpPrintsUsageAndExitsTwo) {
  std::string err;
  bool ran = false;
  const auto body = [&](const CliArgs&) { return ran = true, 0; };
  EXPECT_EQ(run_tool_on({"--help"}, body, err), 2);
  EXPECT_FALSE(ran);
  EXPECT_EQ(err, "usage: tool [--runs=...] [--fast]\n");
}

TEST(RunTool, UsageErrorsExitTwoWithTheProblemAndUsage) {
  std::string err;
  const auto body = [](const CliArgs& args) {
    return static_cast<int>(args.get_int("runs", 0));
  };
  EXPECT_EQ(run_tool_on({"--rusn=5"}, body, err), 2);
  EXPECT_NE(err.find("tool: unknown flag --rusn (did you mean --runs?)"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("usage: tool [--runs=...] [--fast]"), std::string::npos);
  // A malformed value only surfaces when the body reads it.
  EXPECT_EQ(run_tool_on({"--runs=abc"}, body, err), 2);
  EXPECT_NE(err.find("expects an integer"), std::string::npos) << err;
}

TEST(RunTool, OtherFailuresExitOne) {
  std::string err;
  const int code = run_tool_on(
      {}, [](const CliArgs&) -> int { throw std::runtime_error("disk full"); },
      err);
  EXPECT_EQ(code, 1);
  EXPECT_EQ(err, "tool: disk full\n");
}

}  // namespace
}  // namespace adacheck::util
