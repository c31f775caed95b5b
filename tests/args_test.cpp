#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fault_cli.h"
#include "harness/flags.h"
#include "harness/obs_cli.h"
#include "harness/run_cli.h"

namespace pandas::harness {
namespace {

/// Owns an argv for Flags::parse (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> flags) : strings(std::move(flags)) {
    strings.insert(strings.begin(), "bench");
    for (auto& s : strings) ptrs.push_back(s.c_str());
  }
  void parse(Flags& flags) const {
    flags.parse(static_cast<int>(ptrs.size()), ptrs.data());
  }

  std::vector<std::string> strings;
  std::vector<const char*> ptrs;
};

/// A flag set covering every value type, with ranges where the binaries use
/// them.
struct Sample {
  std::uint32_t nodes = 500;
  std::int64_t offset = 0;
  std::uint64_t seed = 42;
  double loss = 0.5;
  double factor = 1.0;
  double dead = 0.3;
  std::uint32_t threads = 4;
  sim::Time delay = 300 * sim::kMillisecond;
  std::string out;
  std::string policy = "redundant";
  bool quick = false;
  Flags flags;

  Sample() {
    flags.flag("--quick", quick, "quick run");
    flags.add("--nodes", nodes, "network size", std::uint32_t{2},
              std::uint32_t{100000});
    flags.quick_default("--nodes", nodes, quick, std::uint32_t{300});
    flags.add("--offset", offset, "signed offset");
    flags.add("--seed", seed, "run seed");
    flags.add("--loss", loss, "loss rate", -1.0, 1.0);
    flags.add("--factor", factor, "any factor", -1e9, 1e9);
    flags.fraction("--dead", dead, "dead fraction");
    flags.add("--threads", threads, "shards", std::uint32_t{1},
              std::uint32_t{64});
    flags.millis("--delay-ms", delay, "delay");
    flags.path("--out", out, "output path");
    flags.choice("--policy", policy, {"minimal", "single", "redundant"},
                 "seeding policy");
  }
  void parse(std::vector<std::string> args) {
    Argv(std::move(args)).parse(flags);
  }
};

TEST(Args, ValidValuesParseAsBefore) {
  Sample s;
  s.parse({"--nodes", "300", "--offset", "-7", "--loss", "0.25", "--factor",
           "-1.5e-3", "--delay-ms", "40", "--out", "t.json", "--policy",
           "single", "--quick"});
  EXPECT_EQ(s.nodes, 300u);
  EXPECT_EQ(s.offset, -7);
  EXPECT_DOUBLE_EQ(s.loss, 0.25);
  EXPECT_DOUBLE_EQ(s.factor, -1.5e-3);
  EXPECT_EQ(s.delay, 40 * sim::kMillisecond);
  EXPECT_EQ(s.out, "t.json");
  EXPECT_EQ(s.policy, "single");
  EXPECT_TRUE(s.quick);
  // Absent flags keep their defaults.
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.dead, 0.3);
  EXPECT_EQ(s.threads, 4u);
}

TEST(Args, QuickDefaultsApplyOnlyToFlagsNotGiven) {
  Sample quick;
  quick.parse({"--quick"});
  EXPECT_EQ(quick.nodes, 300u);
  Sample given;
  given.parse({"--nodes", "700", "--quick"});
  EXPECT_EQ(given.nodes, 700u);
  Sample full;
  full.parse({});
  EXPECT_EQ(full.nodes, 500u);
}

TEST(Args, NegativeValuesAreKept) {
  Sample s;
  s.parse({"--offset", "-400", "--factor", "-0.5"});
  EXPECT_EQ(s.offset, -400);
  EXPECT_DOUBLE_EQ(s.factor, -0.5);
}

TEST(Args, HelpPrintsTheDeclaredTable) {
  Sample s;
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  s.flags.print_help(mem, "bench");
  std::fclose(mem);
  const std::string help(buf, len);
  std::free(buf);
  EXPECT_EQ(help.rfind("usage: bench [flags]\n", 0), 0u);
  EXPECT_NE(help.find("--nodes N"), std::string::npos);
  EXPECT_NE(help.find("[2, 100000] (default 500; 300 with --quick)"),
            std::string::npos);
  EXPECT_NE(help.find("--policy NAME"), std::string::npos);
  EXPECT_NE(help.find("minimal|single|redundant (default redundant)"),
            std::string::npos);
  EXPECT_NE(help.find("--dead X"), std::string::npos);
  EXPECT_NE(help.find("--delay-ms MS"), std::string::npos);
  EXPECT_NE(help.find("--out FILE"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

using ArgsDeathTest = ::testing::Test;

TEST_F(ArgsDeathTest, HelpExitsZeroBeforeAnyOtherCheck) {
  Sample s;
  EXPECT_EXIT(s.parse({"--no-such-flag", "--help"}),
              ::testing::ExitedWithCode(0), "");
}

TEST_F(ArgsDeathTest, UnknownFlagsExitTwo) {
  for (const std::string arg : {"--trails", "--no-such-flag", "-n", "300"}) {
    Sample s;
    EXPECT_EXIT(s.parse({arg}), ::testing::ExitedWithCode(2),
                arg + ": unknown flag")
        << arg;
  }
}

TEST_F(ArgsDeathTest, TrailingFlagWithoutValueExitsTwo) {
  Sample s;
  EXPECT_EXIT(s.parse({"--quick", "--nodes"}), ::testing::ExitedWithCode(2),
              "--nodes: missing value");
}

TEST_F(ArgsDeathTest, ValueThatIsAFlagExitsTwo) {
  Sample s;
  EXPECT_EXIT(s.parse({"--out", "--quick"}), ::testing::ExitedWithCode(2),
              "--out: missing value");
  EXPECT_EXIT(s.parse({"--loss", "--quick"}), ::testing::ExitedWithCode(2),
              "--loss: missing value");
}

TEST_F(ArgsDeathTest, FlagGivenTwiceExitsTwo) {
  Sample s;
  EXPECT_EXIT(s.parse({"--nodes", "300", "--nodes", "400"}),
              ::testing::ExitedWithCode(2), "--nodes: given twice");
}

TEST_F(ArgsDeathTest, BadIntegerExitsTwo) {
  for (const std::string v : {"abc", "", "-", " "}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--nodes", v}), ::testing::ExitedWithCode(2),
                "--nodes: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST_F(ArgsDeathTest, TrailingGarbageExitsTwo) {
  for (const std::string v : {"1k", "300 ", "3.5", "12abc", "0x10"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--nodes", v}), ::testing::ExitedWithCode(2),
                "--nodes: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"0.5x", "1e"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--loss", v}), ::testing::ExitedWithCode(2),
                "--loss: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST_F(ArgsDeathTest, NegativeGarbageExitsTwo) {
  Sample s;
  EXPECT_EXIT(s.parse({"--offset", "-4x"}), ::testing::ExitedWithCode(2),
              "--offset: bad value '-4x'");
  EXPECT_EXIT(s.parse({"--loss", "-.e1"}), ::testing::ExitedWithCode(2),
              "--loss: bad value '-.e1'");
}

TEST_F(ArgsDeathTest, OverflowExitsTwo) {
  for (const std::string v :
       {"9223372036854775808", "-9223372036854775809",
        "99999999999999999999"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--offset", v}), ::testing::ExitedWithCode(2),
                "--offset: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"1e400", "-1e400", "inf", "nan"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--factor", v}), ::testing::ExitedWithCode(2),
                "--factor: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST(Args, Int64ExtremesStillParse) {
  Sample s;
  s.parse({"--offset", "-9223372036854775808", "--seed",
           "18446744073709551615"});
  EXPECT_EQ(s.offset, INT64_MIN);
  EXPECT_EQ(s.seed, UINT64_MAX);
  Sample t;
  t.parse({"--offset", "9223372036854775807"});
  EXPECT_EQ(t.offset, INT64_MAX);
}

TEST(Args, RangedValuesInsideTheRangeParse) {
  Sample s;
  s.parse({"--threads", "64", "--dead", "0", "--delay-ms", "3600000"});
  EXPECT_EQ(s.threads, 64u);
  EXPECT_DOUBLE_EQ(s.dead, 0.0);
  EXPECT_EQ(s.delay, 3'600'000 * sim::kMillisecond);
}

TEST_F(ArgsDeathTest, RangedValuesOutsideTheRangeExitTwo) {
  // bench_soak's --threads: -1 must not wrap to ~4 billion shards.
  for (const std::string v : {"-1", "0", "65"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--threads", v}), ::testing::ExitedWithCode(2),
                "--threads: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"-0.1", "1.5"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--dead", v}), ::testing::ExitedWithCode(2),
                "--dead: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  for (const std::string v : {"-1", "3600001"}) {
    Sample s;
    EXPECT_EXIT(s.parse({"--delay-ms", v}), ::testing::ExitedWithCode(2),
                "--delay-ms: bad value '" + v + "'")
        << "value '" << v << "'";
  }
  Sample s;
  EXPECT_EXIT(s.parse({"--policy", "bogus"}), ::testing::ExitedWithCode(2),
              "--policy: bad value 'bogus'");
}

TEST_F(ArgsDeathTest, UnsignedRunSizesDoNotWrap) {
  // Each of these once wrapped to about 4.3 billion; the parser must exit
  // before any network is built.
  const auto run_size = [](std::vector<std::string> args) {
    Flags flags;
    RunCli run(flags, {.nodes = 500, .slots = 2, .quick = true});
    ObsCli obs(flags);
    Argv(std::move(args)).parse(flags);
  };
  for (const std::string flag : {"--nodes", "--slots", "--trace-ring"}) {
    EXPECT_EXIT(run_size({flag, "-1"}), ::testing::ExitedWithCode(2),
                flag + ": bad value '-1'")
        << flag;
  }
  EXPECT_EXIT(run_size({"--nodes", "1"}), ::testing::ExitedWithCode(2),
              "--nodes: bad value '1'");
  EXPECT_EXIT(run_size({"--slots", "0"}), ::testing::ExitedWithCode(2),
              "--slots: bad value '0'");
}

TEST_F(ArgsDeathTest, ObsFractionsOutsideZeroOneExitTwo) {
  for (const std::string v : {"-0.5", "1.01"}) {
    Flags flags;
    ObsCli obs(flags);
    EXPECT_EXIT(Argv({"--trace-sample-rate", v}).parse(flags),
                ::testing::ExitedWithCode(2),
                "--trace-sample-rate: bad value '" + v + "'")
        << v;
  }
}

TEST(ObsCli, SimThreadsWithinOneTo64Parse) {
  for (const std::string v : {"1", "8", "64"}) {
    Flags flags;
    ObsCli obs(flags);
    Argv({"--sim-threads", v}).parse(flags);
    EXPECT_EQ(obs.sim_threads, std::stoul(v));
  }
}

TEST_F(ArgsDeathTest, SimThreadsOutsideOneTo64ExitTwo) {
  for (const std::string v : {"0", "-3", "65"}) {
    Flags flags;
    ObsCli obs(flags);
    EXPECT_EXIT(Argv({"--sim-threads", v}).parse(flags),
                ::testing::ExitedWithCode(2),
                "--sim-threads: bad value '" + v + "'")
        << "value '" << v << "'";
  }
}

TEST(FaultCli, FractionsSummingToOneParse) {
  // 0.34 + 0.56 + 0.1 rounds to just above 1; the check allows for that.
  Flags flags;
  FaultCli cli(flags);
  Argv({"--dead", "0.34", "--byzantine", "0.56", "--churn", "0.1",
        "--partition", "1", "--straggler-delay-ms", "50"})
      .parse(flags);
  EXPECT_DOUBLE_EQ(cli.faults.churn_fraction, 0.1);
  EXPECT_DOUBLE_EQ(cli.faults.partition_fraction, 1.0);
  EXPECT_EQ(cli.faults.straggler_delay, 50 * sim::kMillisecond);
}

TEST_F(ArgsDeathTest, FaultFractionOutsideZeroOneExitsTwo) {
  for (const std::string flag :
       {"--dead", "--straggler", "--partition", "--loss-burst",
        "--corrupt-rate", "--ge-p-enter", "--ge-p-exit", "--ge-loss-bad"}) {
    for (const std::string v : {"-0.5", "1.01"}) {
      Flags flags;
      FaultCli cli(flags);
      EXPECT_EXIT(Argv({flag, v}).parse(flags), ::testing::ExitedWithCode(2),
                  flag + ": bad value '" + v + "'")
          << flag << " " << v;
    }
  }
}

TEST_F(ArgsDeathTest, BehaviorFractionsSummingAboveOneExitTwo) {
  // The flag whose value pushes the sum past 1 is the one named.
  Flags flags;
  FaultCli cli(flags);
  const Argv argv({"--dead", "0.6", "--withhold", "0.3", "--churn", "0.2"});
  EXPECT_EXIT(argv.parse(flags), ::testing::ExitedWithCode(2),
              "--churn: bad value '0.2'");
}

}  // namespace
}  // namespace pandas::harness
