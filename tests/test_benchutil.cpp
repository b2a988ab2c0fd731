// Tests for the benchmark harness itself: statistics, the paper's
// warmup/iteration protocol, table/CSV rendering, and flag parsing —
// every bench table and JSON record rests on these being right.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "benchutil/runner.hpp"
#include "common/error.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"

namespace gpa::benchutil {
namespace {

TEST(StatsTest, KnownSample) {
  const auto s = compute_stats({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);  // sample stddev
  EXPECT_EQ(s.samples, 5u);
}

TEST(StatsTest, EvenCountMedianAverages) {
  const auto s = compute_stats({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(StatsTest, SingleSampleHasZeroStddev) {
  const auto s = compute_stats({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(StatsTest, EmptySampleIsInert) {
  const auto s = compute_stats({});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(PercentileTest, OrderStatisticsInterpolate) {
  std::vector<double> s{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(s, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(s, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(s, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(s, 87.5), 45.0);  // between 40 and 50
}

TEST(PercentileTest, UnsortedInputAndClampedRange) {
  std::vector<double> s{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(s, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(s, -10.0), 1.0);   // clamped to min
  EXPECT_DOUBLE_EQ(percentile(s, 400.0), 5.0);   // clamped to max
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);   // empty is inert
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
}

TEST(PercentileTest, SmallSamplePinning) {
  // The inclusive definition at tiny n, pinned exactly — serving
  // benchmarks at --smoke scale report p99 over a handful of samples,
  // and the value must be the one this contract promises, not an
  // implementation accident.
  //
  // n=1: every percentile IS the sample.
  for (const double pct : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile({7.5}, pct), 7.5);
  }
  // n=2: rank = pct/100 → p50 is the midpoint, p99 sits 99% of the
  // way from low to high.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 99.0), 19.9);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 100.0), 20.0);
  // n=3: rank = pct/50 — p99 of {10,20,30} interpolates 98% into the
  // upper gap.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0}, 99.0), 29.8);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0}, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 20.0}, 25.0), 15.0);  // unsorted too
  // Endpoints are exact min/max at any n (no epsilon drift).
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 4.0, 1.5, 9.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 4.0, 1.5, 9.0}, 100.0), 9.0);
}

TEST(RunnerTest, ExecutesWarmupPlusIterations) {
  int calls = 0;
  const auto s = run_benchmark([&] { ++calls; }, RunConfig{3, 7});
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(s.samples, 7u);
}

TEST(RunnerTest, TimesAreNonNegativeAndOrdered) {
  const auto s = run_benchmark([] {
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }, RunConfig{1, 5});
  EXPECT_GE(s.min, 0.0);
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
}

TEST(ArgsTest, DefaultsApplied) {
  const char* argv[] = {"bench"};
  const auto args = parse_bench_args(1, const_cast<char**>(argv), 2, 5);
  EXPECT_FALSE(args.paper_scale);
  EXPECT_EQ(args.run.warmup, 2);
  EXPECT_EQ(args.run.iterations, 5);
  EXPECT_TRUE(args.csv_path.empty());
}

TEST(ArgsTest, PaperScaleRestoresPaperProtocol) {
  const char* argv[] = {"bench", "--paper-scale"};
  const auto args = parse_bench_args(2, const_cast<char**>(argv), 1, 3);
  EXPECT_TRUE(args.paper_scale);
  EXPECT_EQ(args.run.warmup, 10);   // §V protocol
  EXPECT_EQ(args.run.iterations, 15);
}

TEST(ArgsTest, ExplicitOverridesWin) {
  const char* argv[] = {"bench", "--paper-scale", "--warmup", "4", "--iters", "9",
                        "--csv", "/tmp/x.csv"};
  const auto args = parse_bench_args(8, const_cast<char**>(argv), 1, 3);
  EXPECT_EQ(args.run.warmup, 4);
  EXPECT_EQ(args.run.iterations, 9);
  EXPECT_EQ(args.csv_path, "/tmp/x.csv");
}

TEST(ArgsTest, MissingFlagValueThrows) {
  const char* argv[] = {"bench", "--csv"};
  EXPECT_THROW(parse_bench_args(2, const_cast<char**>(argv), 1, 3), InvalidArgument);
}

class TableFixture : public ::testing::Test {
 protected:
  std::string path_ =
      (std::filesystem::temp_directory_path() / "gpa_table_test.csv").string();
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(TableFixture, CsvContainsHeaderAndRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x", "y"});
  t.write_csv(path_);
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
}

TEST_F(TableFixture, EmptyPathIsNoOp) {
  Table t({"a"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.write_csv(""));
}

TEST_F(TableFixture, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TableFormatTest, SecondsUseScientificNotation) {
  EXPECT_EQ(Table::fmt_seconds(0.001234), "1.234e-03");
  EXPECT_EQ(Table::fmt_seconds(12.5), "1.250e+01");
}

TEST(TableFormatTest, DoublePrecisionControl) {
  EXPECT_EQ(Table::fmt_double(0.125, 4), "0.125");
  EXPECT_EQ(Table::fmt_double(1.0 / 3.0, 2), "0.33");
}

}  // namespace
}  // namespace gpa::benchutil
