// Unit tests for the utility layer: PRNG, formatting, table, CLI.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

using lotus::util::Cli;
using lotus::util::TablePrinter;
using lotus::util::Xoshiro256;

TEST(Prng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) differing += a() != b() ? 1 : 0;
  EXPECT_GT(differing, 90);
}

TEST(Prng, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Prng, NextBelowCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // rough uniformity
}

TEST(Prng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const auto a = lotus::util::splitmix64(s);
  const auto b = lotus::util::splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Prng, LongJumpDecorrelatesStreams) {
  Xoshiro256 a(5);
  Xoshiro256 b = a;
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(lotus::util::with_commas(0), "0");
  EXPECT_EQ(lotus::util::with_commas(999), "999");
  EXPECT_EQ(lotus::util::with_commas(1000), "1,000");
  EXPECT_EQ(lotus::util::with_commas(1234567), "1,234,567");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(lotus::util::human_bytes(512), "512.0 B");
  EXPECT_EQ(lotus::util::human_bytes(2048), "2.00 KB");
}

TEST(Format, Fixed) { EXPECT_EQ(lotus::util::fixed(3.14159, 2), "3.14"); }

TEST(Table, AlignsColumns) {
  TablePrinter table("demo");
  table.header({"name", "value"});
  table.row({"a", "1"});
  table.row({"long-name", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Header and both rows present, separated by a rule.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Cli, ParsesOptionsAndFlags) {
  Cli cli("test");
  cli.opt("scale", "16", "rmat scale").flag("verbose", "talk more");
  const char* argv[] = {"prog", "--scale", "20", "--verbose"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("scale"), 20);
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, EqualsSyntax) {
  Cli cli("test");
  cli.opt("threads", "1", "thread count");
  const char* argv[] = {"prog", "--threads=8"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("threads"), 8);
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli("test");
  cli.opt("scale", "16", "rmat scale");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, UsageShowsDeclaredDefaultsAfterParse) {
  // The usage printed on a parse error lists the declared defaults, not the
  // values parsed before the error.
  Cli cli("test");
  cli.opt("graph", "", "graph name").opt("path", "lotus", "counting path");
  const char* argv[] = {"prog", "--graph", "clique_24", "--path", "fused",
                        "--bogus"};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(cli.parse(6, argv));
  const std::string usage = testing::internal::GetCapturedStderr();
  EXPECT_NE(usage.find("--graph <value> (default: )"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("--path <value> (default: lotus)"), std::string::npos)
      << usage;
  EXPECT_EQ(usage.find("clique_24"), std::string::npos) << usage;
}

TEST(Cli, DefaultsApplyWhenUnset) {
  Cli cli("test");
  cli.opt("scale", "16", "rmat scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("scale"), 16);
}

}  // namespace
