// Unit tests for util/: rng determinism and distributions, statistics,
// table rendering, thread pool semantics, error helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ru = reclaim::util;

TEST(Error, RequireThrowsTypedExceptions) {
  EXPECT_NO_THROW(ru::require(true, "fine"));
  EXPECT_THROW(ru::require(false, "boom"), reclaim::InvalidArgument);
  EXPECT_THROW(ru::require_numeric(false, "boom"), reclaim::NumericalError);
}

TEST(Error, ExceptionsShareTheLibraryBase) {
  try {
    ru::require_numeric(false, "matrix is singular");
    FAIL() << "expected a throw";
  } catch (const reclaim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("singular"), std::string::npos);
  }
}

TEST(Rng, DeterministicForEqualSeeds) {
  ru::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  ru::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformWithinRange) {
  ru::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  ru::Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  ru::Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntSingleton) {
  ru::Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  ru::Rng rng(13);
  ru::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, SubstreamsAreIndependentOfParentState) {
  const ru::Rng base(99);
  ru::Rng sub1 = base.substream(4);
  ru::Rng sub2 = base.substream(4);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sub1(), sub2());
  ru::Rng other = base.substream(5);
  EXPECT_NE(sub1(), other());
}

TEST(Rng, ShufflePermutes) {
  ru::Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(RunningStats, MatchesClosedForm) {
  ru::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  ru::Rng rng(17);
  ru::RunningStats whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3, 9);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  ru::RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Samples, QuantilesInterpolate) {
  ru::Samples s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 2.0);
}

TEST(Samples, EmptyThrows) {
  ru::Samples s;
  EXPECT_THROW((void)s.mean(), reclaim::InvalidArgument);
  EXPECT_THROW((void)s.quantile(0.5), reclaim::InvalidArgument);
}

TEST(Samples, QuantileRangeChecked) {
  ru::Samples s;
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(1.5), reclaim::InvalidArgument);
}

TEST(GeometricMean, Basics) {
  EXPECT_DOUBLE_EQ(ru::geometric_mean({4.0}), 4.0);
  EXPECT_NEAR(ru::geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW((void)ru::geometric_mean({}), reclaim::InvalidArgument);
  EXPECT_THROW((void)ru::geometric_mean({1.0, -1.0}), reclaim::InvalidArgument);
}

TEST(Table, RendersAllRows) {
  ru::Table t("Energies", {"model", "energy"});
  t.add_row({"Continuous", ru::Table::fmt(1.2345, 3)});
  t.add_row({"Discrete", ru::Table::fmt(2.5, 3)});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Energies"), std::string::npos);
  EXPECT_NE(text.find("Continuous"), std::string::npos);
  EXPECT_NE(text.find("1.234"), std::string::npos);
  EXPECT_NE(text.find("2.500"), std::string::npos);
}

TEST(Table, CsvOutput) {
  ru::Table t("x", {"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthChecked) {
  ru::Table t("x", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), reclaim::InvalidArgument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(ru::Table::fmt(std::size_t{42}), "42");
  EXPECT_EQ(ru::Table::fmt_ratio(1.5, 2), "1.50x");
  EXPECT_EQ(ru::Table::fmt_pct(0.125, 1), "12.5%");
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ru::ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto f1 = pool.submit([&] { counter += 3; });
  auto f2 = pool.submit([&] { counter += 4; });
  f1.get();
  f2.get();
  EXPECT_EQ(counter.load(), 7);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughTheFuture) {
  ru::ThreadPool pool(2);
  auto failed = pool.submit([] { throw std::runtime_error("task failed"); });
  auto fine = pool.submit([] {});
  EXPECT_THROW(failed.get(), std::runtime_error);
  EXPECT_NO_THROW(fine.get());
}

TEST(Timer, MeasuresNonNegativeTime) {
  ru::Timer t;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
}
