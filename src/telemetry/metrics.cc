#include "src/telemetry/metrics.h"

#include <cctype>

namespace pileus::telemetry {

int ThisThreadShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(assigned % kMetricShards);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void HistogramMetric::Record(int64_t value) {
  if (!enabled_->load(std::memory_order_relaxed)) {
    return;
  }
  Shard& shard = shards_[ThisThreadShardIndex()];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.histogram == nullptr) {
    shard.histogram = std::make_unique<Histogram>();
  }
  shard.histogram->Record(value);
}

Histogram HistogramMetric::Merged() const {
  Histogram merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.histogram != nullptr) {
      merged.Merge(*shard.histogram);
    }
  }
  return merged;
}

void HistogramMetric::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.histogram != nullptr) {
      shard.histogram->Reset();
    }
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(
                          new Counter(std::string(name), &enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<HistogramMetric>(
                          new HistogramMetric(std::string(name), &enabled_)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

MetricsRegistry::Snapshot MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->Merged()});
  }
  return snapshot;
}

std::string WithLabels(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out;
  out.reserve(base.size() + 16 * labels.size());
  for (char c : base) {
    const bool legal = std::isalnum(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  if (labels.size() == 0) {
    return out;
  }
  out.push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(key);
    out.append("=\"");
    for (char c : value) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

void SplitLabels(std::string_view name, std::string* base,
                 std::string* label_block) {
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    base->assign(name);
    label_block->clear();
    return;
  }
  base->assign(name.substr(0, brace));
  std::string_view rest = name.substr(brace + 1);
  if (!rest.empty() && rest.back() == '}') {
    rest.remove_suffix(1);
  }
  label_block->assign(rest);
}

}  // namespace pileus::telemetry
