// Thread-safe metrics registry: named counters, gauges, and histograms.
//
// Design goals (DESIGN.md "Telemetry"):
//  - Hot-path recording must be cheap enough for the client Get path and the
//    storage-node request loop: counters are cache-line-sharded relaxed
//    atomics, histograms are per-thread-shard util::Histogram instances
//    guarded by shard-local mutexes and merged only on scrape.
//  - Metric handles (Counter*, Gauge*, HistogramMetric*) are stable for the
//    registry's lifetime, so instrumented code resolves names once and keeps
//    raw pointers — no map lookup per operation.
//  - A registry-wide enabled flag (relaxed atomic, checked per record) lets
//    deployments compile instrumentation in but switch accounting off.
//
// Naming scheme: pileus_<layer>_<what>[_total|_us]{label="value",...}.
// Labels are baked into the metric name with WithLabels(); exporters split
// the base name from the label block when a format needs them separated.

#ifndef PILEUS_SRC_TELEMETRY_METRICS_H_
#define PILEUS_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/histogram.h"

namespace pileus::telemetry {

// Shard count for counters and histograms. A power of two a little above
// typical core counts for this codebase's workloads; threads hash onto
// shards, so contention is possible but rare.
inline constexpr int kMetricShards = 8;

// Stable per-thread shard index in [0, kMetricShards).
int ThisThreadShardIndex();

class MetricsRegistry;

// Monotonically increasing unsigned counter. Increment is wait-free: one
// relaxed flag load plus one relaxed fetch_add on this thread's shard.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    shards_[ThisThreadShardIndex()].value.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }

  uint64_t Value() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  const std::atomic<bool>* enabled_;
  Shard shards_[kMetricShards];
};

// Last-write-wins signed gauge (e.g. a node's high timestamp, a log size).
// Set/Add are single relaxed atomics; gauges are scrape-time mirrors, so
// they are not gated on the enabled flag.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

// Distribution metric backed by util::Histogram. Record locks only this
// thread's shard mutex (uncontended unless two threads hash together);
// Merged() combines the shards on scrape. A shard's Histogram (about 4 KB)
// is created by its first Record, so a metric that one thread records into
// holds one, not kMetricShards of them.
class HistogramMetric {
 public:
  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

  void Record(int64_t value);
  Histogram Merged() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  HistogramMetric(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unique_ptr<Histogram> histogram;  // Null until the first Record.
  };

  std::string name_;
  const std::atomic<bool>* enabled_;
  Shard shards_[kMetricShards];
};

// Find-or-create registry of metrics. Getters take the registry mutex (call
// them at setup time and cache the returned pointers); recording through the
// returned handles never touches the registry again.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry used by layers with no natural injection point
  // (net transports, the server daemon).
  static MetricsRegistry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  HistogramMetric* GetHistogram(std::string_view name);

  // Switching accounting off makes Counter::Increment and
  // HistogramMetric::Record early-return after one relaxed load.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Zeroes every counter and histogram (gauges keep their last value).
  void ResetValues();

  struct Snapshot {
    struct CounterValue {
      std::string name;
      uint64_t value = 0;
    };
    struct GaugeValue {
      std::string name;
      int64_t value = 0;
    };
    struct HistogramValue {
      std::string name;
      Histogram histogram;
    };
    // Each list is sorted by metric name.
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
  };

  // Consistent-enough scrape: values are read metric by metric while
  // recording continues; no cross-metric atomicity is claimed.
  Snapshot Collect() const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

// Builds "base{k1=\"v1\",k2=\"v2\"}". The base name is sanitized to
// [A-Za-z0-9_:] (Prometheus-legal); label values get backslash escaping.
std::string WithLabels(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

// Splits a metric name produced by WithLabels back into base and the label
// block (without braces); label_block is empty when the name has no labels.
void SplitLabels(std::string_view name, std::string* base,
                 std::string* label_block);

}  // namespace pileus::telemetry

#endif  // PILEUS_SRC_TELEMETRY_METRICS_H_
