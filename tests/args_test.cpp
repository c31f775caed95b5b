#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/args.h"
#include "harness/fault_cli.h"
#include "harness/obs_cli.h"

namespace pandas::harness {
namespace {

/// Owns an argv for Args (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> flags) : strings(std::move(flags)) {
    strings.insert(strings.begin(), "bench");
    for (auto& s : strings) ptrs.push_back(s.data());
  }
  Args args() { return Args(static_cast<int>(ptrs.size()), ptrs.data()); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

TEST(Args, ValidValuesParseAsBefore) {
  Argv argv({"--nodes", "300", "--seed", "-7", "--loss", "0.25", "--rate",
             "-1.5e-3", "--quick"});
  const Args args = argv.args();
  EXPECT_EQ(args.get_int("--nodes", 0), 300);
  EXPECT_EQ(args.get_int("--seed", 0), -7);
  EXPECT_DOUBLE_EQ(args.get_double("--loss", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("--rate", 0.0), -1.5e-3);
  EXPECT_DOUBLE_EQ(args.get_double("--nodes", 0.0), 300.0);
  EXPECT_TRUE(args.has("--quick"));
}

TEST(Args, AbsentFlagAndTrailingFlagFallBack) {
  Argv argv({"--quick", "--nodes"});
  const Args args = argv.args();
  EXPECT_EQ(args.get_int("--slots", 5), 5);
  EXPECT_EQ(args.get_int("--nodes", 9), 9);  // no value follows
  EXPECT_DOUBLE_EQ(args.get_double("--loss", 0.5), 0.5);
}

TEST(Args, NegativeValuesAreKept) {
  Argv argv({"--offset-ms", "-400", "--factor", "-0.5"});
  const Args args = argv.args();
  EXPECT_EQ(args.get_int("--offset-ms", 0), -400);
  EXPECT_DOUBLE_EQ(args.get_double("--factor", 0.0), -0.5);
}

using ArgsDeathTest = ::testing::Test;

TEST_F(ArgsDeathTest, BadIntegerExitsTwo) {
  for (const std::string v : {"abc", "", "-", " "}) {
    Argv argv({"--nodes", v});
    EXPECT_EXIT((void)argv.args().get_int("--nodes", 1),
                ::testing::ExitedWithCode(2), "--nodes: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST_F(ArgsDeathTest, TrailingGarbageExitsTwo) {
  for (const std::string v : {"1k", "300 ", "3.5", "12abc", "0x10"}) {
    Argv argv({"--nodes", v});
    EXPECT_EXIT((void)argv.args().get_int("--nodes", 1),
                ::testing::ExitedWithCode(2), "--nodes: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"0.5x", "1e", "--quick"}) {
    Argv argv({"--loss", v});
    EXPECT_EXIT((void)argv.args().get_double("--loss", 0.0),
                ::testing::ExitedWithCode(2), "--loss: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST_F(ArgsDeathTest, NegativeGarbageExitsTwo) {
  Argv argv({"--seed", "-4x", "--loss", "-.e1"});
  EXPECT_EXIT((void)argv.args().get_int("--seed", 1),
              ::testing::ExitedWithCode(2), "--seed: bad value '-4x'");
  EXPECT_EXIT((void)argv.args().get_double("--loss", 0.0),
              ::testing::ExitedWithCode(2), "--loss: bad value '-.e1'");
}

TEST_F(ArgsDeathTest, OverflowExitsTwo) {
  for (const std::string v :
       {"9223372036854775808", "-9223372036854775809", "99999999999999999999"}) {
    Argv argv({"--seed", v});
    EXPECT_EXIT((void)argv.args().get_int("--seed", 1),
                ::testing::ExitedWithCode(2), "--seed: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"1e400", "-1e400", "inf", "nan"}) {
    Argv argv({"--loss", v});
    EXPECT_EXIT((void)argv.args().get_double("--loss", 0.0),
                ::testing::ExitedWithCode(2), "--loss: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST(Args, Int64ExtremesStillParse) {
  Argv argv({"--max", "9223372036854775807", "--min", "-9223372036854775808"});
  const Args args = argv.args();
  EXPECT_EQ(args.get_int("--max", 0), INT64_MAX);
  EXPECT_EQ(args.get_int("--min", 0), INT64_MIN);
}

TEST(Args, RangedValuesInsideTheRangeParse) {
  Argv argv({"--threads", "64", "--dead", "0"});
  const Args args = argv.args();
  EXPECT_EQ(args.get_int("--threads", 4, 1, 64), 64);
  EXPECT_EQ(args.get_int("--slots", 3, 1, 64), 3);  // absent: fallback
  EXPECT_DOUBLE_EQ(args.get_double("--dead", 0.3, 0.0, 1.0), 0.0);
}

TEST_F(ArgsDeathTest, RangedValuesOutsideTheRangeExitTwo) {
  // bench_soak's --threads: -1 must not wrap to ~4 billion shards.
  for (const std::string v : {"-1", "0", "65"}) {
    Argv argv({"--threads", v});
    EXPECT_EXIT((void)argv.args().get_int("--threads", 4, 1, 64),
                ::testing::ExitedWithCode(2), "--threads: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"-0.1", "1.5"}) {
    Argv argv({"--dead", v});
    EXPECT_EXIT((void)argv.args().get_double("--dead", 0.3, 0.0, 1.0),
                ::testing::ExitedWithCode(2), "--dead: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST(ObsCli, SimThreadsWithinOneTo64Parse) {
  for (const std::string v : {"1", "8", "64"}) {
    Argv argv({"--sim-threads", v});
    EXPECT_EQ(ObsCli::parse(argv.args()).sim_threads, std::stoul(v));
  }
}

TEST_F(ArgsDeathTest, SimThreadsOutsideOneTo64ExitTwo) {
  for (const std::string v : {"0", "-3", "65"}) {
    Argv argv({"--sim-threads", v});
    EXPECT_EXIT((void)ObsCli::parse(argv.args()), ::testing::ExitedWithCode(2),
                "--sim-threads: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST(FaultCli, FractionsSummingToOneParse) {
  // 0.34 + 0.56 + 0.1 rounds to just above 1; the check allows for that.
  Argv argv({"--dead", "0.34", "--byzantine", "0.56", "--churn", "0.1",
             "--partition", "1"});
  const auto cli = FaultCli::parse(argv.args());
  EXPECT_DOUBLE_EQ(cli.faults.churn_fraction, 0.1);
  EXPECT_DOUBLE_EQ(cli.faults.partition_fraction, 1.0);
}

TEST_F(ArgsDeathTest, FaultFractionOutsideZeroOneExitsTwo) {
  for (const std::string flag :
       {"--dead", "--straggler", "--partition", "--loss-burst"}) {
    for (const std::string v : {"-0.5", "1.01"}) {
      Argv argv({flag, v});
      EXPECT_EXIT((void)FaultCli::parse(argv.args()),
                  ::testing::ExitedWithCode(2),
                  flag + ": bad value '" + v + "'")
          << flag << " " << v;
    }
  }
}

TEST_F(ArgsDeathTest, BehaviorFractionsSummingAboveOneExitTwo) {
  // The flag whose value pushes the sum past 1 is the one named.
  Argv argv({"--dead", "0.6", "--withhold", "0.3", "--churn", "0.2"});
  EXPECT_EXIT((void)FaultCli::parse(argv.args()), ::testing::ExitedWithCode(2),
              "--churn: bad value '0.2'");
}

}  // namespace
}  // namespace pandas::harness
