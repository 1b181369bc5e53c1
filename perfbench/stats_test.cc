// Unit tests for the benchmark's own arithmetic (perfbench/stats.h).
//
//   python3 perfbench/run.py --selftest

#include "perfbench/stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(SampleTest, NearestRankPercentileCarriesItsSupport) {
  Sample sample;
  for (int i = 1000; i >= 1; --i) {  // Unsorted input.
    sample.Add(i);
  }
  const Percentile p50 = sample.At(0.5);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.count, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  const Percentile p99 = sample.At(0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.Supported());
  EXPECT_EQ(sample.At(1.0).value, 1000);
  EXPECT_EQ(sample.At(1.0).beyond, 0u);
}

TEST(SampleTest, TailWithFewerThanTenBeyondIsUnsupported) {
  Sample sample;
  for (int i = 0; i < 999; ++i) {
    sample.Add(i);
  }
  // ceil(0.99 * 999) = 990, so only 9 samples rank above p99.
  EXPECT_EQ(sample.At(0.99).beyond, 9u);
  EXPECT_FALSE(sample.At(0.99).Supported());
}

TEST(SampleTest, EmptyAndSingleSamples) {
  Sample empty;
  EXPECT_EQ(empty.At(0.5).count, 0u);
  EXPECT_EQ(empty.At(0.5).value, 0);
  EXPECT_FALSE(empty.At(0.5).Supported());
  EXPECT_EQ(empty.Mean(), 0);

  Sample one;
  one.Add(42.5);
  EXPECT_EQ(one.At(0.01).value, 42.5);
  EXPECT_EQ(one.At(0.99).value, 42.5);
  EXPECT_EQ(one.Mean(), 42.5);
}

TEST(SampleTest, AppendAfterQueryResorts) {
  Sample a;
  a.Add(10);
  a.Add(30);
  EXPECT_EQ(a.At(1.0).value, 30);
  Sample b;
  b.Add(20);
  b.Add(5);
  a.Append(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.At(0.25).value, 5);
  EXPECT_EQ(a.At(0.5).value, 10);
  EXPECT_DOUBLE_EQ(a.Mean(), 16.25);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(MedianRelativeTest, MedianOfPerWindowRatios) {
  const std::vector<size_t> all = {0, 1, 2, 3};
  // A machine twice as slow in windows 1 and 3 doubles value and probe
  // alike; the ratio stays 2.
  EXPECT_EQ(MedianRelative({100, 200, 100, 200}, {50, 100, 50, 100}, all), 2);
  // A program slowdown shows even where the machine also slowed.
  EXPECT_EQ(MedianRelative({150, 300, 150}, {50, 100, 50}, all), 3);
  EXPECT_EQ(MedianRelative({10, 30, 60}, {10, 10, 10}, all), 3);
  // Only the given windows count.
  EXPECT_EQ(MedianRelative({10, 30, 60}, {10, 10, 10}, {0, 2}), 3.5);
}

TEST(MedianRelativeTest, SkipsWindowsWithoutValueOrProbe) {
  const std::vector<size_t> all = {0, 1, 2, 3};
  // Window 1 has no ops, window 2 no probe, window 3 is past the probes.
  EXPECT_EQ(MedianRelative({40, 0, 90, 70}, {20, 20, 0}, all), 2);
  EXPECT_EQ(MedianRelative({}, {}, all), 0);
  EXPECT_EQ(MedianRelative({5}, {0}, all), 0);
  EXPECT_EQ(MedianRelative({5}, {1}, {}), 0);
}

TEST(QuietWindowsTest, UnstolenWindowsOrTheLeastStolen) {
  const std::vector<double> steal = {0.0, 0.1, 0.0, 0.02, 0.0, 0.05};
  EXPECT_EQ(QuietWindows(steal, 2), (std::vector<size_t>{0, 2, 4}));
  // Too few unstolen windows: the least stolen make up the count.
  EXPECT_EQ(QuietWindows(steal, 5), (std::vector<size_t>{0, 2, 3, 4, 5}));
  // Among equals, earlier windows first.
  EXPECT_EQ(QuietWindows({0.1, 0.1, 0.1}, 2), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(QuietWindows({0.1}, 3), (std::vector<size_t>{0}));
  EXPECT_TRUE(QuietWindows({}, 3).empty());
}

TEST(WindowedSampleTest, PooledAndPerWindowPercentiles) {
  WindowedSample sample(4);
  for (int i = 1; i <= 100; ++i) {
    sample.Add(0, i);       // p50 50
    sample.Add(1, 10 * i);  // p50 500
    sample.Add(2, 2 * i);   // p50 100
  }
  sample.Add(7, 1000);  // Past the last window: lands in window 3.
  EXPECT_EQ(sample.size(), 4u);
  EXPECT_EQ(sample.PerWindow(0.5), (std::vector<double>{50, 500, 100, 1000}));
  const Percentile p50 = sample.Pooled(0.5);
  EXPECT_EQ(p50.value, 95);  // Rank 151 of 301.
  EXPECT_EQ(p50.count, 301u);
  EXPECT_EQ(p50.beyond, 150u);
  EXPECT_TRUE(p50.Supported());
}

TEST(WindowedSampleTest, EmptyWindowsReadZeroAndMergeAligns) {
  WindowedSample a(3);
  WindowedSample b(3);
  a.Add(0, 10);
  b.Add(0, 30);
  b.Add(2, 50);
  a.Merge(b);
  EXPECT_EQ(a.window(0).count(), 2u);
  EXPECT_EQ(a.window(1).count(), 0u);
  EXPECT_EQ(a.PerWindow(0.5), (std::vector<double>{10, 0, 50}));
  EXPECT_EQ(a.Pooled(0.5).value, 30);
  EXPECT_EQ(a.Pooled(0.5).count, 3u);
  EXPECT_EQ(WindowedSample(2).Pooled(0.5).count, 0u);
  EXPECT_EQ(WindowedSample(2).Pooled(0.5).beyond, 0u);
}

TEST(UtilityLedgerTest, FailuresCountAsZeroUtilityAndMissRankZero) {
  UtilityLedger ledger;
  ledger.Record(true, 1.0, 0);
  ledger.Record(true, 0.5, 1);
  ledger.Record(false, 1.0, 0);  // Failed: whatever was claimed is ignored.
  ledger.Record(true, 1.0, 0);
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_DOUBLE_EQ(ledger.MeanUtility(), 2.5 / 4.0);
  EXPECT_DOUBLE_EQ(ledger.Rank0Fraction(), 2.0 / 4.0);
}

TEST(UtilityLedgerTest, MergeAndEmpty) {
  UtilityLedger a;
  UtilityLedger b;
  EXPECT_EQ(a.MeanUtility(), 0.0);
  a.Record(true, 1.0, 0);
  b.Record(false, 0.0, -1);
  a.Merge(b);
  EXPECT_EQ(a.attempted(), 2u);
  EXPECT_EQ(a.failed(), 1u);
  EXPECT_DOUBLE_EQ(a.MeanUtility(), 0.5);
}

TEST(SplitOpTest, SelfTimeIsOpMinusNestedCalls) {
  const Interval op{1000, 11000};  // 10 us.
  const OpSplit split = SplitOp(op, {{2000, 5000}, {6000, 8000}});
  EXPECT_TRUE(split.nested);
  EXPECT_DOUBLE_EQ(split.op_us, 10.0);
  EXPECT_DOUBLE_EQ(split.call_us, 5.0);
  EXPECT_DOUBLE_EQ(split.self_us, 5.0);
}

TEST(SplitOpTest, OpWithoutCallsIsAllSelf) {
  const OpSplit split = SplitOp({0, 4000}, {});
  EXPECT_TRUE(split.nested);
  EXPECT_DOUBLE_EQ(split.self_us, 4.0);
  EXPECT_DOUBLE_EQ(split.call_us, 0.0);
}

TEST(SplitOpTest, CallsOutsideOrOverlappingAreFlagged) {
  EXPECT_FALSE(SplitOp({1000, 2000}, {{500, 1500}}).nested);   // Starts early.
  EXPECT_FALSE(SplitOp({1000, 2000}, {{1500, 2500}}).nested);  // Ends late.
  EXPECT_FALSE(
      SplitOp({0, 10000}, {{1000, 5000}, {4000, 6000}}).nested);  // Overlap.
}

TEST(ReconcileTest, MeansThatAddUpPass) {
  const Reconciliation r = Reconcile("Get", 100.0, 60.0, 40.0);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_DOUBLE_EQ(r.residual_us, 0.0);
  EXPECT_TRUE(Reconcile("Get", 100.0, 60.0, 39.5).ok);  // Within 1%.
}

TEST(ReconcileTest, MismatchOrNegativeSelfFails) {
  EXPECT_FALSE(Reconcile("Get", 100.0, 60.0, 30.0).ok);
  EXPECT_FALSE(Reconcile("Put", 100.0, -1.0, 101.0).ok);
  EXPECT_NE(Reconcile("Put", 100.0, 60.0, 30.0).detail.find("Put"),
            std::string::npos);
}

TEST(ReconcileTest, HandlerMayNotExceedCall) {
  EXPECT_TRUE(CheckHandlerWithinCall("primary Get", 5.0, 50.0).ok);
  EXPECT_TRUE(CheckHandlerWithinCall("primary Get", 50.0, 50.0).ok);
  EXPECT_FALSE(CheckHandlerWithinCall("primary Get", 51.0, 50.0).ok);
}

TEST(ProcStatTest, StealShareBetweenReadings) {
  const CpuTimes a =
      ParseProcStatCpuLine("cpu  100 0 50 800 10 0 5 35 7 0");
  ASSERT_TRUE(a.valid);
  EXPECT_EQ(a.total, 1000u);  // Guest (7) is not added twice.
  EXPECT_EQ(a.steal, 35u);
  const CpuTimes b =
      ParseProcStatCpuLine("cpu  200 0 100 1500 10 0 10 85 9 0");
  EXPECT_DOUBLE_EQ(StealFraction(a, b), 50.0 / 905.0);
  EXPECT_EQ(StealFraction(b, a), 0.0);
  EXPECT_FALSE(ParseProcStatCpuLine("cpu0 1 2 3").valid);
  EXPECT_FALSE(ParseProcStatCpuLine("cpu  1 2 3").valid);
}

TEST(EmissionTest, NamesAndUnitsFollowTheResultFormat) {
  EXPECT_TRUE(ValidMetricName("ops_per_s"));
  EXPECT_TRUE(ValidMetricName("core.get_self_us"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("B/B"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("micro seconds"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

TEST(EmissionTest, ResultJsonKeepsEveryDigit) {
  const std::string json =
      ResultJson(true, 1000, 2,
                 {{"latency_ms", 1.2034567891, "ms"}, {"setup_s", 0.8, "s"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567891, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8, \"unit\": "
            "\"s\"}}}");
  EXPECT_NE(ResultJson(false, 1, 1, {}).find("\"correct\": false"),
            std::string::npos);
}

TEST(EmissionTest, ResultJsonRejectsBadMetrics) {
  EXPECT_EQ(ResultJson(true, 1, 0, {{"bad name", 1.0, "s"}}), "");
  EXPECT_EQ(ResultJson(true, 1, 0, {{"x", 1.0, "bad unit"}}), "");
  EXPECT_EQ(ResultJson(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}}), "");
  EXPECT_EQ(ResultJson(true, 1, 0, {{"x", 0.0 / 0.0, "s"}}), "");
}

TEST(EmissionTest, MetricLinesShowSupport) {
  Sample sample;
  for (int i = 1; i <= 100; ++i) {
    sample.Add(i);
  }
  EXPECT_EQ(MetricLine({"get_p50_us", 50, "us"}, sample.At(0.5)),
            "metric get_p50_us 50 us (n=100, beyond=50)");
  EXPECT_EQ(MetricLine({"get_p99_us", 99, "us"}, sample.At(0.99)),
            "metric get_p99_us 99 us (n=100, beyond=1, UNSUPPORTED: <10 "
            "samples beyond)");
  EXPECT_EQ(MetricLine({"setup_s", 1.5, "s"}), "metric setup_s 1.5 s");
}

}  // namespace
}  // namespace perfbench
