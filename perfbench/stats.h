// Arithmetic of the end-to-end benchmark, kept apart from the stack wiring
// so it can be unit-tested: percentile estimates that carry their sample
// support, SLA utility accounting with failures counted as zero, the span
// split and reconciliation behind the per-layer numbers, CPU-steal deltas
// from /proc/stat, and the metric emission format.

#ifndef PILEUS_PERFBENCH_STATS_H_
#define PILEUS_PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// A nearest-rank percentile and how much data it rests on. `beyond` counts
// the samples ranked strictly above the estimate; a tail percentile means
// little unless at least ten samples lie beyond it.
struct Percentile {
  double value = 0.0;
  size_t count = 0;
  size_t beyond = 0;

  bool Supported(size_t min_beyond = 10) const {
    return count > 0 && beyond >= min_beyond;
  }
};

// An unordered bag of measurements (microseconds, bytes, ...).
class Sample {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Sample& other);

  size_t count() const { return values_.size(); }
  double Sum() const;
  double Mean() const;  // 0 when empty.
  // Nearest-rank: the value at rank ceil(q * n) of the sorted sample, q in
  // (0, 1]. Empty sample: value 0, count 0.
  Percentile At(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Median of a small set (for repeated set-up timings). 0 when empty.
double Median(std::vector<double> values);

// On a shared machine, other tenants (a busy sibling hyperthread, cache and
// memory contention) change how fast this one runs any code, by up to 2x
// from one second to the next. So a run times a fixed unit of CPU work, the
// machine probe, in every sub-window, and reports a figure relative to it:
// the median over the given sub-windows of value / probe. A slowdown of the
// program itself raises every ratio; a slower machine raises value and probe
// alike. Sub-windows where either is not positive are skipped; 0 when none
// is left.
double MedianRelative(const std::vector<double>& values,
                      const std::vector<double>& probes,
                      const std::vector<size_t>& windows);

// CPU steal (the hypervisor running other tenants on this machine's CPUs)
// stalls the stack's threads while they hold locks or wait for each other,
// which the probe, timed on its own CPU clock, does not see. The sub-windows
// a run's relative figures are taken over are therefore those in which no
// steal was reported, or, when fewer than `min_count` were, the
// `min_count` least stolen (earlier first among equals).
std::vector<size_t> QuietWindows(const std::vector<double>& steal,
                                 size_t min_count);

// A run's measurements split into consecutive sub-windows.
class WindowedSample {
 public:
  explicit WindowedSample(size_t windows = 1) : windows_(windows) {}

  void Add(size_t window, double value) {
    windows_[std::min(window, windows_.size() - 1)].Add(value);
  }
  void Merge(const WindowedSample& other);

  size_t size() const { return windows_.size(); }
  const Sample& window(size_t i) const { return windows_[i]; }
  // The q-percentile of all windows' samples together.
  Percentile Pooled(double q) const;
  // Each window's q-percentile; 0 for an empty window.
  std::vector<double> PerWindow(double q) const;

 private:
  std::vector<Sample> windows_;
};

// SLA utility delivered per attempted Get. A failed Get delivers nothing
// and so counts as missing every subSLA, rank 0 included.
class UtilityLedger {
 public:
  void Record(bool ok, double utility, int met_rank);
  void Merge(const UtilityLedger& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double MeanUtility() const;   // Over attempted Gets; 0 when none.
  double Rank0Fraction() const; // Gets meeting rank 0 / attempted Gets.

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t rank0_ = 0;
  double utility_sum_ = 0.0;
};

// One client op and the connection calls made inside it.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// The split of one op span into time inside NodeConnection::Call (its
// child spans) and the client library's own time around them.
struct OpSplit {
  double op_us = 0.0;
  double call_us = 0.0;  // Sum of child durations.
  double self_us = 0.0;  // op_us - call_us.
  bool nested = true;    // Every child lies inside the op and none overlap.
};
OpSplit SplitOp(const Interval& op, const std::vector<Interval>& calls);

// Checks that per-layer means add back up to the client-observed mean:
// |op - (self + calls)| <= tolerance * op, with self >= 0.
struct Reconciliation {
  bool ok = true;
  double residual_us = 0.0;
  std::string detail;
};
Reconciliation Reconcile(std::string_view what, double op_mean_us,
                         double self_mean_us, double call_mean_per_op_us,
                         double tolerance = 0.01);
// A server handler runs inside the call that reached it, so its mean time
// cannot exceed the mean call time seen by the client.
Reconciliation CheckHandlerWithinCall(std::string_view what,
                                      double handler_mean_us,
                                      double call_mean_us);

// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool valid = false;
};
CpuTimes ParseProcStatCpuLine(std::string_view line);
CpuTimes ReadProcStatCpu();
// Steal share of all CPU time between two readings; 0 when unknown.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Name and unit rules of the benchmark's result format: a name starts with
// a letter or digit and has at most 64 of [A-Za-z0-9_.-]; a unit has at
// most 16 of [A-Za-z0-9_/%.-].
bool ValidMetricName(std::string_view name);
bool ValidUnit(std::string_view unit);

// Shortest decimal that reads back as exactly `value`.
std::string FormatNumber(double value);

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
// {name:{"value":..,"unit":..},..}}. Returns an empty string when a name or
// unit breaks the rules, a name repeats, or a value is not finite.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// Human-readable line: "metric <name> <value> <unit>", with the sample
// support appended for percentiles.
std::string MetricLine(const Metric& metric);
std::string MetricLine(const Metric& metric, const Percentile& support);

}  // namespace perfbench

#endif  // PILEUS_PERFBENCH_STATS_H_
