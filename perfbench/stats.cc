#include "perfbench/stats.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

namespace perfbench {

void Sample::Append(const Sample& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Sample::Sum() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

double Sample::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

Percentile Sample::At(double q) const {
  Percentile p;
  p.count = values_.size();
  if (values_.empty()) {
    return p;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  size_t rank = static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  p.value = values_[rank - 1];
  p.beyond = values_.size() - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double MedianRelative(const std::vector<double>& values,
                      const std::vector<double>& probes,
                      const std::vector<size_t>& windows) {
  std::vector<double> ratios;
  for (size_t i : windows) {
    if (i < values.size() && i < probes.size() && values[i] > 0.0 &&
        probes[i] > 0.0) {
      ratios.push_back(values[i] / probes[i]);
    }
  }
  return Median(std::move(ratios));
}

std::vector<size_t> QuietWindows(const std::vector<double>& steal,
                                 size_t min_count) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= 0.0) {
    ++keep;
  }
  order.resize(std::min(order.size(), std::max(keep, min_count)));
  std::sort(order.begin(), order.end());
  return order;
}

void WindowedSample::Merge(const WindowedSample& other) {
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (size_t i = 0; i < other.windows_.size(); ++i) {
    windows_[i].Append(other.windows_[i]);
  }
}

Percentile WindowedSample::Pooled(double q) const {
  Sample all;
  for (const Sample& w : windows_) {
    all.Append(w);
  }
  return all.At(q);
}

std::vector<double> WindowedSample::PerWindow(double q) const {
  std::vector<double> values;
  for (const Sample& w : windows_) {
    values.push_back(w.At(q).value);
  }
  return values;
}

void UtilityLedger::Record(bool ok, double utility, int met_rank) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    return;
  }
  utility_sum_ += utility;
  if (met_rank == 0) {
    ++rank0_;
  }
}

void UtilityLedger::Merge(const UtilityLedger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  rank0_ += other.rank0_;
  utility_sum_ += other.utility_sum_;
}

double UtilityLedger::MeanUtility() const {
  return attempted_ == 0 ? 0.0
                         : utility_sum_ / static_cast<double>(attempted_);
}

double UtilityLedger::Rank0Fraction() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(rank0_) /
                               static_cast<double>(attempted_);
}

OpSplit SplitOp(const Interval& op, const std::vector<Interval>& calls) {
  OpSplit split;
  split.op_us = static_cast<double>(op.duration_ns()) / 1000.0;
  int64_t previous_end = op.start_ns;
  int64_t call_ns = 0;
  for (const Interval& call : calls) {
    if (call.start_ns < previous_end || call.end_ns < call.start_ns ||
        call.end_ns > op.end_ns) {
      split.nested = false;
    }
    previous_end = std::max(previous_end, call.end_ns);
    call_ns += call.duration_ns();
  }
  split.call_us = static_cast<double>(call_ns) / 1000.0;
  split.self_us = split.op_us - split.call_us;
  if (split.self_us < 0.0) {
    split.nested = false;
  }
  return split;
}

Reconciliation Reconcile(std::string_view what, double op_mean_us,
                         double self_mean_us, double call_mean_per_op_us,
                         double tolerance) {
  Reconciliation r;
  r.residual_us = op_mean_us - (self_mean_us + call_mean_per_op_us);
  const double allowed = tolerance * std::abs(op_mean_us);
  std::ostringstream detail;
  detail << what << ": op mean " << op_mean_us << " us vs self "
         << self_mean_us << " + calls " << call_mean_per_op_us
         << " (residual " << r.residual_us << " us)";
  r.ok = std::abs(r.residual_us) <= allowed && self_mean_us >= 0.0;
  r.detail = detail.str();
  return r;
}

Reconciliation CheckHandlerWithinCall(std::string_view what,
                                      double handler_mean_us,
                                      double call_mean_us) {
  Reconciliation r;
  r.residual_us = call_mean_us - handler_mean_us;
  r.ok = handler_mean_us <= call_mean_us;
  std::ostringstream detail;
  detail << what << ": handler mean " << handler_mean_us
         << " us vs call mean " << call_mean_us << " us";
  r.detail = detail.str();
  return r;
}

CpuTimes ParseProcStatCpuLine(std::string_view line) {
  CpuTimes times;
  if (line.substr(0, 4) != "cpu ") {
    return times;
  }
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already included in user/nice, so it is not re-added.
  std::istringstream in{std::string(line.substr(4))};
  uint64_t field = 0;
  int index = 0;
  while (index < 8 && in >> field) {
    times.total += field;
    if (index == 7) {
      times.steal = field;
    }
    ++index;
  }
  times.valid = index == 8;
  return times;
}

CpuTimes ReadProcStatCpu() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) {
    return CpuTimes{};
  }
  return ParseProcStatCpuLine(line);
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (!before.valid || !after.valid || after.total <= before.total ||
      after.steal < before.steal) {
    return 0.0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

namespace {

bool NameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), NameChar);
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return NameChar(c) || c == '/' || c == '%';
  });
}

std::string FormatNumber(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::set<std::string_view> seen;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!ValidMetricName(m.name) || !ValidUnit(m.unit) ||
        !std::isfinite(m.value) || !seen.insert(m.name).second) {
      return "";
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

std::string MetricLine(const Metric& metric) {
  return "metric " + metric.name + " " + FormatNumber(metric.value) + " " +
         metric.unit;
}

std::string MetricLine(const Metric& metric, const Percentile& support) {
  return MetricLine(metric) + " (n=" + std::to_string(support.count) +
         ", beyond=" + std::to_string(support.beyond) +
         (support.Supported() ? "" : ", UNSUPPORTED: <10 samples beyond") +
         ")";
}

}  // namespace perfbench
