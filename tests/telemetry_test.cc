// Telemetry subsystem tests: registry semantics, label handling, exporter
// goldens, trace-buffer ring behavior, multi-threaded recording (exercised
// under TSan in CI), and the acceptance check that a simulated GeoTestbed
// run's telemetry matches the workload runner's own tallies.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sla.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pileus::telemetry {
namespace {

TEST(MetricsRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ops_total");
  Counter* b = registry.GetCounter("ops_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "ops_total");
  EXPECT_NE(registry.GetCounter("other_total"), a);
  EXPECT_EQ(registry.GetGauge("depth"), registry.GetGauge("depth"));
  EXPECT_EQ(registry.GetHistogram("lat_us"), registry.GetHistogram("lat_us"));
}

TEST(MetricsRegistryTest, CounterAccumulatesAcrossShards) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ops_total");
  EXPECT_EQ(counter->Value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Value(), 42u);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("depth");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 7);
}

TEST(MetricsRegistryTest, HistogramMergesShards) {
  MetricsRegistry registry;
  HistogramMetric* histogram = registry.GetHistogram("lat_us");
  for (int i = 1; i <= 100; ++i) {
    histogram->Record(i);
  }
  Histogram merged = histogram->Merged();
  EXPECT_EQ(merged.count(), 100u);
  EXPECT_EQ(merged.min(), 1);
  EXPECT_EQ(merged.max(), 100);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsRecordings) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter* counter = registry.GetCounter("ops_total");
  HistogramMetric* histogram = registry.GetHistogram("lat_us");
  Gauge* gauge = registry.GetGauge("depth");
  counter->Increment(5);
  histogram->Record(123);
  gauge->Set(9);  // Gauges are scrape-time mirrors; never gated.
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Merged().count(), 0u);
  EXPECT_EQ(gauge->Value(), 9);

  registry.SetEnabled(true);
  counter->Increment(5);
  histogram->Record(123);
  EXPECT_EQ(counter->Value(), 5u);
  EXPECT_EQ(histogram->Merged().count(), 1u);
}

TEST(MetricsRegistryTest, ResetValuesKeepsGauges) {
  MetricsRegistry registry;
  registry.GetCounter("ops_total")->Increment(3);
  registry.GetHistogram("lat_us")->Record(50);
  registry.GetGauge("depth")->Set(11);
  registry.ResetValues();
  EXPECT_EQ(registry.GetCounter("ops_total")->Value(), 0u);
  EXPECT_EQ(registry.GetHistogram("lat_us")->Merged().count(), 0u);
  EXPECT_EQ(registry.GetGauge("depth")->Value(), 11);
}

TEST(MetricsRegistryTest, CollectSortsByName) {
  MetricsRegistry registry;
  registry.GetCounter("zz_total")->Increment();
  registry.GetCounter("aa_total")->Increment(2);
  MetricsRegistry::Snapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "aa_total");
  EXPECT_EQ(snapshot.counters[0].value, 2u);
  EXPECT_EQ(snapshot.counters[1].name, "zz_total");
}

TEST(MetricsRegistryTest, WithLabelsBuildsAndSplitsRoundTrip) {
  const std::string name =
      WithLabels("pileus_client_gets_total", {{"table", "ycsb"}, {"rank", "0"}});
  EXPECT_EQ(name, "pileus_client_gets_total{table=\"ycsb\",rank=\"0\"}");
  std::string base;
  std::string labels;
  SplitLabels(name, &base, &labels);
  EXPECT_EQ(base, "pileus_client_gets_total");
  EXPECT_EQ(labels, "table=\"ycsb\",rank=\"0\"");

  SplitLabels("plain_total", &base, &labels);
  EXPECT_EQ(base, "plain_total");
  EXPECT_TRUE(labels.empty());
}

TEST(MetricsRegistryTest, WithLabelsSanitizesBaseAndEscapesValues) {
  EXPECT_EQ(WithLabels("bad name-1!", {}), "bad_name_1_");
  EXPECT_EQ(WithLabels("m", {{"k", "a\"b\\c"}}), "m{k=\"a\\\"b\\\\c\"}");
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  // Run under TSan in CI: hammers the sharded counter and histogram paths
  // from many threads while a scraper collects concurrently.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ops_total");
  HistogramMetric* histogram = registry.GetHistogram("lat_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        if (i % 100 == 0) {
          histogram->Record(i);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      (void)registry.Collect();
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram->Merged().count(),
            static_cast<uint64_t>(kThreads) * (kPerThread / 100));
}

TEST(MetricsRegistryTest, NeverRecordedHistogramExportsAsEmpty) {
  // Shards are created by their first Record; an untouched metric must
  // still export as an empty distribution in every format.
  MetricsRegistry registry;
  HistogramMetric* histogram = registry.GetHistogram("idle_us");
  EXPECT_EQ(histogram->Merged().count(), 0u);
  histogram->Reset();
  EXPECT_EQ(ExportPrometheus(registry),
            "# TYPE idle_us histogram\n"
            "idle_us_bucket{le=\"+Inf\"} 0\n"
            "idle_us_sum 0\n"
            "idle_us_count 0\n");
  EXPECT_EQ(ExportJson(registry),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"idle_us\":"
            "{\"count\":0,\"mean\":0.000,\"min\":0,\"max\":0,"
            "\"p50\":0,\"p95\":0,\"p99\":0,\"buckets\":[]}}}");
  char line[256];
  std::snprintf(line, sizeof(line), "  %-58s %s\n", "idle_us",
                Histogram().Summary().c_str());
  EXPECT_EQ(ExportSummary(registry), std::string("histograms:\n") + line);
}

TEST(MetricsRegistryTest, ConcurrentFirstRecordsAreExact) {
  // Every thread's first Record races to create its shard's histogram; none
  // may be lost or double-created. Run under TSan in CI.
  for (int round = 0; round < 20; ++round) {
    MetricsRegistry registry;
    HistogramMetric* histogram = registry.GetHistogram("first_us");
    constexpr int kThreads = 2 * kMetricShards;
    constexpr int kPerThread = 50;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([histogram, t] {
        for (int i = 0; i < kPerThread; ++i) {
          histogram->Record(t);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const Histogram merged = histogram->Merged();
    EXPECT_EQ(merged.count(), static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(merged.max(), kThreads - 1);
  }
}

TEST(ExportTest, PrometheusCountersAndGaugesGolden) {
  MetricsRegistry registry;
  registry.GetCounter(WithLabels("requests_total", {{"region", "eu"}}))
      ->Increment(3);
  registry.GetCounter(WithLabels("requests_total", {{"region", "us"}}))
      ->Increment(5);
  registry.GetGauge("queue_depth")->Set(7);
  EXPECT_EQ(ExportPrometheus(registry),
            "# TYPE requests_total counter\n"
            "requests_total{region=\"eu\"} 3\n"
            "requests_total{region=\"us\"} 5\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 7\n");
}

TEST(ExportTest, PrometheusHistogramIsCumulative) {
  MetricsRegistry registry;
  HistogramMetric* histogram = registry.GetHistogram("lat_us");
  histogram->Record(1);
  histogram->Record(1);
  histogram->Record(1000);
  const std::string out = ExportPrometheus(registry);
  EXPECT_NE(out.find("# TYPE lat_us histogram\n"), std::string::npos);
  // Cumulative buckets: the +Inf bucket and _count both see every sample.
  EXPECT_NE(out.find("lat_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("lat_us_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("lat_us_sum 1002\n"), std::string::npos);
}

TEST(ExportTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("ops_total")->Increment(4);
  registry.GetGauge("depth")->Set(-2);
  EXPECT_EQ(ExportJson(registry),
            "{\"counters\":{\"ops_total\":4},"
            "\"gauges\":{\"depth\":-2},\"histograms\":{}}");
}

TEST(ExportTest, SummaryListsSectionsAndHandlesEmpty) {
  MetricsRegistry empty;
  EXPECT_EQ(ExportSummary(empty), "(no metrics recorded)\n");

  MetricsRegistry registry;
  registry.GetCounter("ops_total")->Increment(9);
  registry.GetGauge("depth")->Set(1);
  registry.GetHistogram("lat_us")->Record(10);
  const std::string out = ExportSummary(registry);
  EXPECT_NE(out.find("counters:\n"), std::string::npos);
  EXPECT_NE(out.find("gauges:\n"), std::string::npos);
  EXPECT_NE(out.find("histograms:\n"), std::string::npos);
  EXPECT_NE(out.find("ops_total"), std::string::npos);
}

TEST(ExportTest, ExportAsDispatchesOnFormat) {
  MetricsRegistry registry;
  registry.GetCounter("ops_total")->Increment();
  EXPECT_EQ(ExportAs(registry, "prometheus"), ExportPrometheus(registry));
  EXPECT_EQ(ExportAs(registry, "json"), ExportJson(registry));
  EXPECT_EQ(ExportAs(registry, "summary"), ExportSummary(registry));
  EXPECT_EQ(ExportAs(registry, ""), ExportSummary(registry));
}

TEST(TraceTest, EventToJsonGolden) {
  TraceEvent event;
  event.op = TraceOp::kGet;
  event.time_us = 1234;
  event.table = "ycsb";
  event.key = "user42";
  event.node = "US";
  event.node_index = 1;
  event.target_rank = 0;
  event.met_rank = 1;
  event.consistency = "eventual";
  event.utility = 0.5;
  event.rtt_us = 1500;
  event.read_timestamp = Timestamp{1000, 2};
  event.min_acceptable = Timestamp{900, 0};
  event.from_primary = false;
  event.retried = true;
  event.ok = true;
  EXPECT_EQ(event.ToJson(),
            "{\"op\":\"get\",\"time_us\":1234,\"table\":\"ycsb\","
            "\"key\":\"user42\",\"node\":\"US\",\"node_index\":1,"
            "\"target_rank\":0,\"met_rank\":1,\"consistency\":\"eventual\","
            "\"utility\":0.5,\"rtt_us\":1500,"
            "\"read_ts\":{\"physical_us\":1000,\"sequence\":2},"
            "\"min_acceptable\":{\"physical_us\":900,\"sequence\":0},"
            "\"from_primary\":false,\"retried\":true,\"ok\":true}");
}

TEST(TraceTest, RingOverwritesOldestAndCountsDrops) {
  TraceBuffer buffer(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.time_us = i;
    buffer.OnTrace(event);
  }
  EXPECT_EQ(buffer.total_recorded(), 5u);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time_us, 2);  // Oldest surviving.
  EXPECT_EQ(events[2].time_us, 4);  // Newest.

  std::vector<TraceEvent> drained = buffer.Drain();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(buffer.size(), 0u);
}

class RecordingSink : public TraceSink {
 public:
  void OnTrace(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

TEST(TraceTest, ForwardSinkSeesEveryEvent) {
  TraceBuffer buffer(/*capacity=*/2);
  RecordingSink sink;
  buffer.set_forward_sink(&sink);
  for (int i = 0; i < 4; ++i) {
    TraceEvent event;
    event.time_us = i;
    buffer.OnTrace(event);
  }
  // The ring kept 2; the forward sink got all 4, including overwritten ones.
  EXPECT_EQ(buffer.size(), 2u);
  ASSERT_EQ(sink.events.size(), 4u);
  EXPECT_EQ(sink.events[3].time_us, 3);
}

TEST(TraceTest, ExportTracesJsonHonorsMaxEvents) {
  TraceBuffer buffer(/*capacity=*/8);
  for (int i = 0; i < 3; ++i) {
    TraceEvent event;
    event.time_us = i;
    buffer.OnTrace(event);
  }
  EXPECT_EQ(ExportTracesJson(buffer, 0).find('['), 0u);
  const std::string last_one = ExportTracesJson(buffer, 1);
  EXPECT_NE(last_one.find("\"time_us\":2"), std::string::npos);
  EXPECT_EQ(last_one.find("\"time_us\":0"), std::string::npos);
}

// Acceptance: a simulated worldwide run's telemetry must agree with the
// workload runner's own accounting — per-subSLA target/met counts, error
// counts, and total delivered utility.
TEST(GeoTestbedTelemetryTest, TelemetryMatchesRunnerTallies) {
  using experiments::GeoTestbed;
  using experiments::GeoTestbedOptions;
  using experiments::kTableName;
  using experiments::kUs;

  GeoTestbedOptions testbed_options;
  testbed_options.seed = 11;
  testbed_options.replication_period_us = SecondsToMicroseconds(10);
  GeoTestbed testbed(testbed_options);
  experiments::PreloadKeys(testbed, 200);
  testbed.StartReplication();

  MetricsRegistry registry;
  TraceBuffer traces(/*capacity=*/1 << 15);
  core::PileusClient::Options client_options;
  client_options.metrics = &registry;
  client_options.trace_sink = &traces;
  std::unique_ptr<experiments::GeoClient> client =
      testbed.MakeClient(kUs, client_options);

  experiments::RunOptions run_options;
  run_options.sla = core::Sla()
                        .Add(core::Guarantee::Strong(),
                             MillisecondsToMicroseconds(200), 1.0)
                        .Add(core::Guarantee::Eventual(),
                             MillisecondsToMicroseconds(400), 0.5);
  run_options.workload.key_count = 200;
  run_options.total_ops = 1200;
  // Zero warm-up so the client-side counters and the runner count the same
  // operations.
  run_options.warmup_ops = 0;
  const experiments::RunStats stats =
      experiments::RunYcsb(testbed, *client, run_options);

  ASSERT_GT(stats.gets, 0u);
  ASSERT_GT(stats.puts, 0u);

  const auto counter_value = [&](std::string_view base,
                                 std::initializer_list<
                                     std::pair<std::string_view,
                                               std::string_view>>
                                     labels) {
    return registry.GetCounter(WithLabels(base, labels))->Value();
  };
  const uint64_t gets =
      counter_value("pileus_client_gets_total", {{"table", kTableName}});
  const uint64_t puts =
      counter_value("pileus_client_puts_total", {{"table", kTableName}});
  const uint64_t get_errors =
      counter_value("pileus_client_get_errors_total", {{"table", kTableName}});
  const uint64_t met_none = counter_value(
      "pileus_client_sla_met_total", {{"table", kTableName}, {"rank", "none"}});
  EXPECT_EQ(gets, stats.gets);
  EXPECT_EQ(puts, stats.puts);
  EXPECT_EQ(get_errors, stats.get_errors);

  // Per-rank met/target counts. RunStats lumps "no subSLA met" and outright
  // errors together under rank -1; the client telemetry splits them.
  uint64_t runner_met_total = 0;
  for (const auto& [rank, count] : stats.met_counts) {
    if (rank < 0) {
      EXPECT_EQ(count, met_none + get_errors);
      continue;
    }
    runner_met_total += count;
    EXPECT_EQ(counter_value("pileus_client_sla_met_total",
                            {{"table", kTableName},
                             {"rank", std::to_string(rank)}}),
              count)
        << "met rank " << rank;
  }
  std::map<int, uint64_t> runner_targets;
  for (const auto& [key, count] : stats.target_node_counts) {
    runner_targets[key.first] += count;
  }
  for (const auto& [rank, count] : runner_targets) {
    if (rank < 0) {
      continue;
    }
    EXPECT_EQ(counter_value("pileus_client_sla_target_total",
                            {{"table", kTableName},
                             {"rank", std::to_string(rank)}}),
              count)
        << "target rank " << rank;
  }

  // Utility: the counter accumulates micro-utils, rounded per operation.
  const double telemetry_utility =
      static_cast<double>(counter_value("pileus_client_utility_micros_total",
                                        {{"table", kTableName}})) /
      1e6;
  EXPECT_NEAR(telemetry_utility, stats.utility_sum, 0.01);

  // The Get latency histogram records successful Gets only (errors are
  // counted, not timed), so it must match the runner's success count.
  const Histogram get_latency =
      registry
          .GetHistogram(WithLabels("pileus_client_get_latency_us",
                                   {{"table", kTableName}}))
          ->Merged();
  EXPECT_EQ(get_latency.count(), stats.gets - stats.get_errors);

  // Traces: one kGet event per Get, one kPut per Put, nothing dropped.
  EXPECT_EQ(traces.dropped(), 0u);
  uint64_t trace_gets = 0;
  uint64_t trace_puts = 0;
  uint64_t trace_met[2] = {0, 0};
  for (const TraceEvent& event : traces.Snapshot()) {
    if (event.op == TraceOp::kGet) {
      ++trace_gets;
      if (event.met_rank >= 0 && event.met_rank < 2) {
        ++trace_met[event.met_rank];
      }
    } else if (event.op == TraceOp::kPut) {
      ++trace_puts;
    }
  }
  EXPECT_EQ(trace_gets, stats.gets);
  EXPECT_EQ(trace_puts, stats.puts);
  for (int rank = 0; rank < 2; ++rank) {
    const auto it = stats.met_counts.find(rank);
    EXPECT_EQ(trace_met[rank], it == stats.met_counts.end() ? 0u : it->second)
        << "trace met rank " << rank;
  }
  EXPECT_GT(runner_met_total, 0u);
}

}  // namespace
}  // namespace pileus::telemetry
