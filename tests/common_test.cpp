#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace esca {
namespace {

TEST(Coord3Test, ArithmeticAndComparison) {
  const Coord3 a{1, 2, 3};
  const Coord3 b{4, 5, 6};
  EXPECT_EQ(a + b, (Coord3{5, 7, 9}));
  EXPECT_EQ(b - a, (Coord3{3, 3, 3}));
  EXPECT_EQ(a * 2, (Coord3{2, 4, 6}));
  EXPECT_TRUE(a < b);
  EXPECT_EQ(a, (Coord3{1, 2, 3}));
}

TEST(Coord3Test, OrderingIsZMajor) {
  // (z, y, x) lexicographic: z dominates.
  EXPECT_TRUE((Coord3{9, 9, 0}) < (Coord3{0, 0, 1}));
  EXPECT_TRUE((Coord3{9, 0, 5}) < (Coord3{0, 1, 5}));
  EXPECT_TRUE((Coord3{0, 3, 5}) < (Coord3{1, 3, 5}));
}

TEST(Coord3Test, FloorDivRoundsTowardNegativeInfinity) {
  EXPECT_EQ((Coord3{7, -7, 8}).floordiv(4), (Coord3{1, -2, 2}));
  EXPECT_EQ((Coord3{-1, -4, 3}).floordiv(4), (Coord3{-1, -1, 0}));
}

TEST(Coord3Test, Volume) {
  EXPECT_EQ((Coord3{192, 192, 192}).volume(), 7077888);
  EXPECT_EQ((Coord3{0, 5, 5}).volume(), 0);
}

TEST(Coord3Test, LinearIndexRoundTrip) {
  const Coord3 extent{5, 7, 9};
  for (std::int64_t i = 0; i < extent.volume(); ++i) {
    const Coord3 c = delinearize(i, extent);
    EXPECT_TRUE(in_bounds(c, extent));
    EXPECT_EQ(linear_index(c, extent), i);
  }
}

TEST(Coord3Test, InBounds) {
  const Coord3 extent{4, 4, 4};
  EXPECT_TRUE(in_bounds({0, 0, 0}, extent));
  EXPECT_TRUE(in_bounds({3, 3, 3}, extent));
  EXPECT_FALSE(in_bounds({4, 0, 0}, extent));
  EXPECT_FALSE(in_bounds({0, -1, 0}, extent));
}

TEST(Coord3Test, HashSpreadsNeighbours) {
  const Coord3Hash h;
  EXPECT_NE(h({0, 0, 0}), h({1, 0, 0}));
  EXPECT_NE(h({0, 0, 1}), h({0, 1, 0}));
}

TEST(CheckTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(ESCA_REQUIRE(false, "message " << 42), InvalidArgument);
  EXPECT_NO_THROW(ESCA_REQUIRE(true, "fine"));
}

TEST(CheckTest, CheckThrowsInternalError) {
  EXPECT_THROW(ESCA_CHECK(false, "bug"), InternalError);
}

TEST(CheckTest, MessageContainsContext) {
  try {
    ESCA_REQUIRE(1 == 2, "custom context " << 7);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context 7"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng root1(7);
  Rng root2(7);
  Rng c1 = root1.fork(0);
  Rng c2 = root2.fork(1);
  // Different stream ids should decorrelate (first draws differ).
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(RngTest, UniformIntRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, -3), InvalidArgument);
}

TEST(StringsTest, SplitAndTrim) {
  const auto parts = str::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(str::trim("  hi \n"), "hi");
  EXPECT_EQ(str::trim("   "), "");
}

TEST(StringsTest, FormatAndFixed) {
  EXPECT_EQ(str::format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(str::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(str::percent(0.9982, 2), "99.82%");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(str::with_commas(0), "0");
  EXPECT_EQ(str::with_commas(999), "999");
  EXPECT_EQ(str::with_commas(110592), "110,592");
  EXPECT_EQ(str::with_commas(-1234567), "-1,234,567");
}

TEST(ConfigTest, FromArgsAndTypedGetters) {
  const char* argv[] = {"prog", "tile=8", "freq=270e6", "overlap=true", "name=esca"};
  const Config cfg = Config::from_args(5, argv);
  EXPECT_EQ(cfg.get_int("tile", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("freq", 0.0), 270e6);
  EXPECT_TRUE(cfg.get_bool("overlap", false));
  EXPECT_EQ(cfg.get_string("name", ""), "esca");
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
}

TEST(ConfigTest, RejectsMalformedEntries) {
  const char* noequals[] = {"prog", "noequals"};
  EXPECT_THROW(Config::from_args(2, noequals), InvalidArgument);
  const char* notanumber[] = {"prog", "k=notanumber"};
  EXPECT_THROW(Config::from_args(2, notanumber).get_int("k", 0), InvalidArgument);
  // An empty value is not 0: `repeats=` must not silently run zero repeats.
  const char* empty[] = {"prog", "k="};
  const Config cfg = Config::from_args(2, empty);
  EXPECT_THROW(cfg.get_int("k", 1), InvalidArgument);
  EXPECT_THROW(cfg.get_double("k", 1.0), InvalidArgument);
  EXPECT_EQ(cfg.get_string("k", "x"), "");
}

TEST(StatsTest, RunningStatMoments) {
  RunningStat s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t("TEST");
  t.header({"A", "Col"}).row({"1", "x"}).separator().row({"22", "yy"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== TEST =="), std::string::npos);
  EXPECT_NE(s.find("A  | Col"), std::string::npos);
  EXPECT_NE(s.find("22 | yy"), std::string::npos);
}

TEST(UnitsTest, Rendering) {
  EXPECT_EQ(units::bytes(512), "512 B");
  EXPECT_EQ(units::bytes(1536), "1.50 KiB");
  EXPECT_EQ(units::ops_per_second(17.73e9), "17.73 GOPS");
  EXPECT_EQ(units::frequency(270e6), "270.0 MHz");
  EXPECT_EQ(units::seconds(0.00321), "3.210 ms");
}

/// Sets an environment variable for one scope, restoring "unset" on exit.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

TEST(EnvTest, UnsetVariablesComeBackEmpty) {
  ::unsetenv("ESCA_TEST_ENV_KNOB");
  EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB"), std::nullopt);
}

TEST(EnvTest, WholeValueMustParse) {
  {
    ScopedEnv env("ESCA_TEST_ENV_KNOB", "4x");  // atoi would read 4
    EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB"), std::nullopt);
  }
  {
    ScopedEnv env("ESCA_TEST_ENV_KNOB", "abc");  // atoi would read 0
    EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB"), std::nullopt);
  }
  {
    ScopedEnv env("ESCA_TEST_ENV_KNOB", "");
    EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB"), std::nullopt);
  }
  {
    ScopedEnv env("ESCA_TEST_ENV_KNOB", "1.5");  // not a whole integer
    EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB"), std::nullopt);
  }
}

TEST(EnvTest, GoodValuesAndBoundsEnforced) {
  ScopedEnv env("ESCA_TEST_ENV_KNOB", "-12");
  EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB"), -12);
  // Out of the caller's range => treated as unset, default applies.
  EXPECT_EQ(env_int("ESCA_TEST_ENV_KNOB", /*lo=*/1, /*hi=*/64), std::nullopt);
}

}  // namespace
}  // namespace esca
