// Tests for the monitor's sliding latency window.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/util/sliding_window.h"

namespace pileus {
namespace {

constexpr MicrosecondCount kSec = kMicrosecondsPerSecond;

TEST(SlidingWindowTest, EmptyWindowUsesEmptyEstimate) {
  SlidingWindow window;
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 100, 0.25), 0.25);
  EXPECT_EQ(window.Mean(0), 0);
  EXPECT_EQ(window.Quantile(0, 0.5), 0);
  EXPECT_TRUE(window.Empty(0));
}

TEST(SlidingWindowTest, FractionBelowCountsStrictly) {
  SlidingWindow window;
  window.Record(0, 10);
  window.Record(0, 20);
  window.Record(0, 30);
  window.Record(0, 40);
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 25), 0.5);
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 10), 0.0);  // Strictly below.
  EXPECT_DOUBLE_EQ(window.FractionBelow(0, 41), 1.0);
}

TEST(SlidingWindowTest, OldSamplesExpire) {
  SlidingWindow::Options options;
  options.window_us = 10 * kSec;
  SlidingWindow window(options);
  window.Record(0, 1000);            // Will expire.
  window.Record(9 * kSec, 5000);     // Still alive at t=15s.
  EXPECT_EQ(window.SampleCount(15 * kSec), 1u);
  EXPECT_EQ(window.Mean(15 * kSec), 5000);
}

TEST(SlidingWindowTest, AllSamplesExpireBackToEmptyEstimate) {
  SlidingWindow::Options options;
  options.window_us = kSec;
  SlidingWindow window(options);
  window.Record(0, 1000);
  EXPECT_DOUBLE_EQ(window.FractionBelow(10 * kSec, 100, 0.7), 0.7);
}

TEST(SlidingWindowTest, MaxSamplesCapEvictsOldest) {
  SlidingWindow::Options options;
  options.max_samples = 3;
  SlidingWindow window(options);
  for (int i = 0; i < 10; ++i) {
    window.Record(i, 100 + i);
  }
  EXPECT_EQ(window.SampleCount(10), 3u);
  // Only the last three (107, 108, 109) remain.
  EXPECT_EQ(window.Mean(10), 108);
}

TEST(SlidingWindowTest, MeanIsArithmetic) {
  SlidingWindow window;
  window.Record(0, 100);
  window.Record(0, 200);
  window.Record(0, 600);
  EXPECT_EQ(window.Mean(0), 300);
}

TEST(SlidingWindowTest, QuantileNearestRank) {
  SlidingWindow window;
  for (int i = 1; i <= 100; ++i) {
    window.Record(0, i * 10);
  }
  EXPECT_EQ(window.Quantile(0, 0.0), 10);
  EXPECT_NEAR(window.Quantile(0, 0.5), 500, 10);
  EXPECT_NEAR(window.Quantile(0, 0.99), 990, 10);
  EXPECT_EQ(window.Quantile(0, 1.0), 1000);
}

TEST(SlidingWindowTest, LastSampleTime) {
  SlidingWindow window;
  EXPECT_EQ(window.LastSampleTime(), -1);
  window.Record(1234, 1);
  EXPECT_EQ(window.LastSampleTime(), 1234);
  window.Record(5678, 1);
  EXPECT_EQ(window.LastSampleTime(), 5678);
}

TEST(SlidingWindowTest, ClearEmptiesWindow) {
  SlidingWindow window;
  window.Record(0, 1);
  window.Clear();
  EXPECT_TRUE(window.Empty(0));
}

// Brute-force oracle: the time-ordered samples alone, every query answered by
// scanning them. The indexed window must agree with it bit for bit.
class ScanWindow {
 public:
  explicit ScanWindow(SlidingWindow::Options options) : options_(options) {}

  void Record(MicrosecondCount now_us, MicrosecondCount value_us) {
    Evict(now_us);
    samples_.push_back({now_us, value_us});
    while (samples_.size() > options_.max_samples) {
      samples_.pop_front();
    }
  }

  double FractionBelow(MicrosecondCount now_us, MicrosecondCount threshold_us,
                       double empty_estimate) {
    Evict(now_us);
    if (samples_.empty()) {
      return empty_estimate;
    }
    size_t below = 0;
    for (const auto& [at, value] : samples_) {
      below += value < threshold_us ? 1 : 0;
    }
    return static_cast<double>(below) / static_cast<double>(samples_.size());
  }

  MicrosecondCount Mean(MicrosecondCount now_us) {
    Evict(now_us);
    if (samples_.empty()) {
      return 0;
    }
    MicrosecondCount sum = 0;
    for (const auto& [at, value] : samples_) {
      sum += value;
    }
    return sum / static_cast<MicrosecondCount>(samples_.size());
  }

  MicrosecondCount Quantile(MicrosecondCount now_us, double q) {
    Evict(now_us);
    if (samples_.empty()) {
      return 0;
    }
    std::vector<MicrosecondCount> values;
    for (const auto& [at, value] : samples_) {
      values.push_back(value);
    }
    std::sort(values.begin(), values.end());
    q = std::clamp(q, 0.0, 1.0);
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(q * static_cast<double>(values.size())));
    return values[rank];
  }

  size_t SampleCount(MicrosecondCount now_us) {
    Evict(now_us);
    return samples_.size();
  }

  MicrosecondCount LastSampleTime() const {
    return samples_.empty() ? -1 : samples_.back().first;
  }

  // The windowed values, for picking thresholds that hit duplicates.
  std::vector<MicrosecondCount> Values() const {
    std::vector<MicrosecondCount> values;
    for (const auto& [at, value] : samples_) {
      values.push_back(value);
    }
    return values;
  }

  void Clear() { samples_.clear(); }

 private:
  void Evict(MicrosecondCount now_us) {
    while (!samples_.empty() &&
           samples_.front().first < now_us - options_.window_us) {
      samples_.pop_front();
    }
  }

  SlidingWindow::Options options_;
  std::deque<std::pair<MicrosecondCount, MicrosecondCount>> samples_;
};

struct DifferentialCase {
  std::string name;
  SlidingWindow::Options options;
  // Values are drawn uniformly from [0, value_range).
  int64_t value_range;
};

// Compares every query of the indexed window with the scan oracle at one
// `now`. Queries evict in both, so they run in the same order on each.
void ExpectSameAnswers(const SlidingWindow& window, ScanWindow& oracle,
                       MicrosecondCount now, Random& rng, int64_t value_range) {
  ASSERT_EQ(window.SampleCount(now), oracle.SampleCount(now));
  ASSERT_EQ(window.LastSampleTime(), oracle.LastSampleTime());
  ASSERT_EQ(window.Mean(now), oracle.Mean(now));
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0, rng.NextDouble()}) {
    ASSERT_EQ(window.Quantile(now, q), oracle.Quantile(now, q)) << "q=" << q;
  }
  std::vector<MicrosecondCount> thresholds = {
      -1, 0, 1, value_range, value_range + 1,
      rng.NextInt64InRange(0, value_range)};
  const std::vector<MicrosecondCount> values = oracle.Values();
  if (!values.empty()) {
    // Thresholds equal to (and adjacent to) windowed values check that the
    // count is strictly-below at a run of duplicates.
    const MicrosecondCount hit = values[rng.NextUint64(values.size())];
    thresholds.insert(thresholds.end(), {hit - 1, hit, hit + 1});
  }
  for (MicrosecondCount threshold : thresholds) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the answers must be bit-identical.
    ASSERT_EQ(window.FractionBelow(now, threshold, 0.375),
              oracle.FractionBelow(now, threshold, 0.375))
        << "threshold=" << threshold;
  }
}

TEST(SlidingWindowTest, IndexedAnswersMatchAScanOracle) {
  const std::vector<DifferentialCase> cases = {
      // The monitor's default shape: a two-minute window capped at 4096.
      {"default_wide_values", {SecondsToMicroseconds(120), 4096}, 1000000},
      {"default_few_values", {SecondsToMicroseconds(120), 4096}, 8},
      // Time expiry dominates: a short window relative to the time step.
      {"short_window", {2000, 4096}, 500},
      {"small_cap", {SecondsToMicroseconds(120), 7}, 20},
      {"cap_of_one", {SecondsToMicroseconds(120), 1}, 20},
      {"cap_and_expiry", {1500, 16}, 50},
      // The reachability window records only 0 and 1.
      {"outcomes", {SecondsToMicroseconds(120), 64}, 2},
      {"outcomes_short_window", {800, 4096}, 2},
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const DifferentialCase& c : cases) {
      SCOPED_TRACE(c.name + " seed=" + std::to_string(seed));
      Random rng(seed);
      SlidingWindow window(c.options);
      ScanWindow oracle(c.options);
      MicrosecondCount now = 0;
      for (int step = 0; step < 1500; ++step) {
        now += rng.NextInt64InRange(0, 200);
        const uint64_t action = rng.NextUint64(100);
        if (action < 2) {
          window.Clear();
          oracle.Clear();
        } else if (action < 12) {
          // Query only, at a later `now`: samples expire without a Record.
          now += rng.NextInt64InRange(0, 2 * c.options.window_us);
        } else {
          const MicrosecondCount value =
              rng.NextInt64InRange(0, c.value_range - 1);
          window.Record(now, value);
          oracle.Record(now, value);
        }
        ExpectSameAnswers(window, oracle, now, rng, c.value_range);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(SlidingWindowTest, IndexedAnswersMatchAScanOracleOnAFullWindow) {
  // A warm client's window: filled to the cap, then every Record evicts one.
  SlidingWindow::Options options;
  SlidingWindow window(options);
  ScanWindow oracle(options);
  Random rng(42);
  MicrosecondCount now = 0;
  for (int step = 0; step < 3 * 4096; ++step) {
    now += 100;
    // Latency-like: a fast mode with a slow tail and many duplicates.
    const MicrosecondCount value = rng.NextBool(0.9)
                                       ? rng.NextInt64InRange(900, 1100)
                                       : rng.NextInt64InRange(20000, 90000);
    window.Record(now, value);
    oracle.Record(now, value);
    if (step % 97 == 0) {
      ExpectSameAnswers(window, oracle, now, rng, 90000);
      ASSERT_FALSE(HasFatalFailure()) << "step " << step;
    }
  }
  EXPECT_EQ(window.SampleCount(now), options.max_samples);
}

}  // namespace
}  // namespace pileus
