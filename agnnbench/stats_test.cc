#include "stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

namespace agnnbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.0);
}

TEST(PercentileTest, InfinityCountsAsMissingTheLimit) {
  std::vector<double> v(99, 10.0);
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_EQ(Percentile(v, 99.0), 10.0);
  EXPECT_TRUE(std::isinf(Percentile(v, 100.0)));
}

TEST(PercentileTest, WindowedMedianIgnoresOneStalledWindow) {
  // Five windows of 100 samples; one window holds a 5 ms stall that pushes
  // 20 of its samples past its p99, which the plain p99 of all 500 picks up.
  std::vector<double> v(500, 100.0);
  for (int i = 200; i < 220; ++i) v[i] = 5000.0;
  EXPECT_EQ(Percentile(v, 99.0), 5000.0);
  EXPECT_EQ(WindowedPercentile(v, 100, 99.0), 100.0);
  // Fewer samples than a window: the plain percentile.
  EXPECT_EQ(WindowedPercentile({1.0, 2.0, 3.0}, 100, 50.0), 2.0);
  EXPECT_EQ(WindowedPercentile({}, 100, 99.0), 0.0);
  // A trailing partial window is dropped.
  std::vector<double> w(250, 1.0);
  for (int i = 200; i < 250; ++i) w[i] = 9.0;
  EXPECT_EQ(WindowedPercentile(w, 100, 99.0), 1.0);
}

TEST(SampleCountRuleTest, TenSamplesBeyondThePercentile) {
  EXPECT_FALSE(SupportsPercentile(19, 50.0));
  EXPECT_TRUE(SupportsPercentile(20, 50.0));
  EXPECT_FALSE(SupportsPercentile(999, 99.0));
  EXPECT_TRUE(SupportsPercentile(1000, 99.0));
  EXPECT_FALSE(SupportsPercentile(9999, 99.9));
  EXPECT_TRUE(SupportsPercentile(10000, 99.9));
  EXPECT_TRUE(SupportsPercentile(100000, 99.99));
}

TEST(SampleCountRuleTest, HighestSupportedPercentile) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(1000, 20), 95.0);
}

TEST(LadderTest, GeometricRungs) {
  const std::vector<double> ladder = GeometricLadder(1000.0, 8000.0, 2.0);
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_DOUBLE_EQ(ladder[0], 1000.0);
  EXPECT_DOUBLE_EQ(ladder[3], 8000.0);
  EXPECT_TRUE(GeometricLadder(0.0, 10.0, 2.0).empty());
  EXPECT_TRUE(GeometricLadder(10.0, 5.0, 2.0).empty());
  EXPECT_TRUE(GeometricLadder(10.0, 50.0, 1.0).empty());
  EXPECT_EQ(GeometricLadder(10.0, 10.0, 1.5).size(), 1u);
}

// p99 of an M/M/1-like server: latency grows as 1 / (1 - rate / capacity).
double SyntheticP99(double rate, double capacity, double base_us) {
  if (rate >= capacity) return std::numeric_limits<double>::infinity();
  return base_us / (1.0 - rate / capacity);
}

TEST(LadderTest, SearchFindsTheHighestPassingRateOnALatencyCurve) {
  const std::vector<double> ladder = GeometricLadder(1000.0, 1e6, 1.05);
  const double capacity = 80000.0;
  const double base_us = 100.0;
  const double limit_us = 1000.0;  // met while rate <= 0.9 * capacity
  size_t probes = 0;
  LadderSearch search(ladder.size());
  while (!search.done()) {
    const size_t k = search.next();
    ++probes;
    RungOutcome outcome;
    outcome.p99_us = SyntheticP99(ladder[k], capacity, base_us);
    search.Report(RungPasses(outcome, limit_us));
  }
  const long best = search.best();
  ASSERT_GE(best, 0);
  // The exhaustive answer: the last rung at or below 72k/s.
  long expected = -1;
  for (size_t k = 0; k < ladder.size(); ++k) {
    if (SyntheticP99(ladder[k], capacity, base_us) <= limit_us) {
      expected = static_cast<long>(k);
    }
  }
  EXPECT_EQ(best, expected);
  EXPECT_LE(ladder[best], 0.9 * capacity);
  EXPECT_GT(ladder[best] * 1.05, 0.9 * capacity);
  EXPECT_LE(probes, 10u);  // log2(142 rungs) + the lowest rung
}

long SearchAll(size_t n, bool pass_all) {
  LadderSearch search(n);
  while (!search.done()) search.Report(pass_all);
  return search.best();
}

TEST(LadderTest, SearchEdges) {
  EXPECT_EQ(SearchAll(0, true), -1);
  EXPECT_EQ(SearchAll(10, false), -1);
  EXPECT_EQ(SearchAll(10, true), 9);
  EXPECT_EQ(SearchAll(1, true), 0);
  LadderSearch search(10);
  EXPECT_EQ(search.next(), 0u);  // the lowest rung first
  search.Report(true);
  EXPECT_EQ(search.next(), 5u);
  search.Report(false);
  EXPECT_EQ(search.next(), 2u);
}

TEST(LadderTest, RungFailsOnShedBacklogOrAbort) {
  RungOutcome ok{500.0, 0, 100.0, false};
  EXPECT_TRUE(RungPasses(ok, 1000.0));
  RungOutcome shed = ok;
  shed.shed = 1;
  EXPECT_FALSE(RungPasses(shed, 1000.0));
  RungOutcome backlog = ok;
  backlog.backlog_lag_us = 1500.0;
  EXPECT_FALSE(RungPasses(backlog, 1000.0));
  RungOutcome aborted = ok;
  aborted.aborted = true;
  EXPECT_FALSE(RungPasses(aborted, 1000.0));
  RungOutcome slow = ok;
  slow.p99_us = 1000.5;
  EXPECT_FALSE(RungPasses(slow, 1000.0));
}

// A fake clock the test advances explicitly; each read costs `tick` µs so
// busy-waits terminate.
struct FakeClock {
  double now = 0.0;
  double tick = 1.0;
  double operator()() {
    const double t = now;
    now += tick;
    return t;
  }
};

TEST(OpenLoopTest, SubmitsAtDueTimesAndAccountsLateness) {
  const std::vector<double> due = {10.0, 20.0, 30.0};
  FakeClock fake;
  OpenLoop loop(&due, [&] { return fake(); });
  size_t idle_calls = 0;
  loop.Run(
      [&](size_t i, double d) {
        EXPECT_EQ(d, due[i]);
        if (i == 0) fake.now += 25.0;  // a slow server stalls the generator
      },
      [&](double now) {
        ++idle_calls;
        EXPECT_LT(now, 30.0);
      });
  ASSERT_EQ(loop.sent(), 3u);
  EXPECT_FALSE(loop.aborted());
  ASSERT_EQ(loop.lateness_us().size(), 3u);
  EXPECT_EQ(loop.lateness_us()[0], 0.0);  // clock read exactly at t=10
  // After the stall the clock reads 36: arrival 1 is 16 µs late and arrival
  // 2 is 7 µs late — the stall delays later arrivals too.
  EXPECT_EQ(loop.lateness_us()[1], 16.0);
  EXPECT_EQ(loop.lateness_us()[2], 7.0);
  EXPECT_EQ(idle_calls, 10u);  // t = 0..9 while waiting for the first
}

TEST(OpenLoopTest, LatencyRunsFromDueTimeAndUnansweredMisses) {
  const std::vector<double> due = {100.0, 200.0, 300.0};
  FakeClock fake;
  OpenLoop loop(&due, [&] { return fake(); });
  loop.Run([](size_t, double) {}, [](double) {});
  fake.now = 450.0;
  EXPECT_EQ(loop.Complete(0), 450.0);
  fake.now = 500.0;
  loop.Complete(2);
  EXPECT_EQ(loop.latency_us(0), 350.0);
  EXPECT_EQ(loop.latency_us(2), 200.0);
  EXPECT_FALSE(loop.completed(1));
  const std::vector<double> latencies = loop.Latencies();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_EQ(latencies[0], 350.0);
  EXPECT_TRUE(std::isinf(latencies[1]));
  EXPECT_EQ(latencies[2], 200.0);
}

TEST(OpenLoopTest, AbortsOnceLatenessExceedsTheBound) {
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  FakeClock fake;
  OpenLoop loop(&due, [&] { return fake(); });
  loop.Run([&](size_t, double) { fake.now += 50.0; }, [](double) {},
           /*max_lag_us=*/60.0);
  // Arrival 1 is read at t=51 (50 late), arrival 2 at t=102 (100 late).
  EXPECT_TRUE(loop.aborted());
  EXPECT_EQ(loop.sent(), 2u);
  EXPECT_EQ(loop.lateness_us().size(), 2u);
  EXPECT_EQ(loop.Latencies().size(), 2u);
}

TEST(FailedFracTest, Arithmetic) {
  EXPECT_EQ(FailedFrac(0, 0, 100), 0.0);
  EXPECT_DOUBLE_EQ(FailedFrac(3, 2, 100), 0.05);
  EXPECT_DOUBLE_EQ(FailedFrac(0, 1, 4), 0.25);
  EXPECT_EQ(FailedFrac(10, 0, 10), 1.0);
  EXPECT_EQ(FailedFrac(0, 0, 0), -1.0);   // nothing attempted
  EXPECT_EQ(FailedFrac(6, 5, 10), -1.0);  // more failures than attempts
}

}  // namespace
}  // namespace agnnbench
