// Tests for the client-side monitor (paper Section 4.5).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/monitor.h"

namespace pileus::core {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : clock_(SecondsToMicroseconds(1000)), monitor_(&clock_) {}

  ManualClock clock_;
  Monitor monitor_;
};

TEST_F(MonitorTest, UnknownNodeIsOptimisticOnLatency) {
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("ghost", 1000), 1.0);
}

TEST_F(MonitorTest, UnknownNodeEstimateConfigurable) {
  Monitor::Options options;
  options.unknown_latency_estimate = 0.5;
  Monitor monitor(&clock_, options);
  EXPECT_DOUBLE_EQ(monitor.PNodeLat("ghost", 1000), 0.5);
}

TEST_F(MonitorTest, PNodeLatIsWindowFraction) {
  for (int i = 0; i < 8; ++i) {
    monitor_.RecordLatency("n", 1000);
  }
  for (int i = 0; i < 2; ++i) {
    monitor_.RecordLatency("n", 100000);
  }
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 2000), 0.8);
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 200000), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 100), 0.0);
}

TEST_F(MonitorTest, UnknownNodeHasZeroHighTimestamp) {
  EXPECT_EQ(monitor_.KnownHighTimestamp("ghost"), Timestamp::Zero());
  // PNodeCons for a zero threshold is still satisfied.
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("ghost", Timestamp::Zero()), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("ghost", Timestamp{1, 0}), 0.0);
}

TEST_F(MonitorTest, HighTimestampOnlyMovesForward) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  monitor_.RecordHighTimestamp("n", Timestamp{300, 0});  // Stale report.
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{500, 0}));
  monitor_.RecordHighTimestamp("n", Timestamp{800, 0});
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{800, 0}));
}

TEST_F(MonitorTest, PNodeConsIsBinaryAndConservative) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("n", Timestamp{500, 0}), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("n", Timestamp{500, 1}), 0.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeCons("n", Timestamp{100, 0}), 1.0);
}

TEST_F(MonitorTest, PNodeSlaIsProduct) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  monitor_.RecordLatency("n", 1000);
  monitor_.RecordLatency("n", 3000);
  // PNodeLat(2000) = 0.5; PNodeCons({400,0}) = 1.
  EXPECT_DOUBLE_EQ(monitor_.PNodeSla("n", Timestamp{400, 0}, 2000), 0.5);
  // Consistency unsatisfied -> 0 regardless of latency.
  EXPECT_DOUBLE_EQ(monitor_.PNodeSla("n", Timestamp{600, 0}, 2000), 0.0);
}

TEST_F(MonitorTest, OldLatencySamplesAgeOut) {
  Monitor::Options options;
  options.latency_window.window_us = SecondsToMicroseconds(10);
  Monitor monitor(&clock_, options);
  monitor.RecordLatency("n", 100000);
  clock_.AdvanceMicros(SecondsToMicroseconds(60));
  // The slow sample expired; the node is unknown again (optimistic).
  EXPECT_DOUBLE_EQ(monitor.PNodeLat("n", 1000), 1.0);
}

TEST_F(MonitorTest, NeedsProbeForUnknownAndStaleNodes) {
  EXPECT_TRUE(monitor_.NeedsProbe("ghost"));
  monitor_.RecordLatency("n", 1000);
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
  clock_.AdvanceMicros(monitor_.options().probe_interval_us + 1);
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, HighTimestampReportRefreshesContact) {
  monitor_.RecordHighTimestamp("n", Timestamp{1, 0});
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, MeanLatency) {
  EXPECT_EQ(monitor_.MeanLatency("ghost"), 0);
  monitor_.RecordLatency("n", 100);
  monitor_.RecordLatency("n", 300);
  EXPECT_EQ(monitor_.MeanLatency("n"), 200);
}

TEST_F(MonitorTest, SamplesRecordedCounter) {
  EXPECT_EQ(monitor_.samples_recorded(), 0u);
  monitor_.RecordLatency("a", 1);
  monitor_.RecordLatency("b", 2);
  EXPECT_EQ(monitor_.samples_recorded(), 2u);
}

TEST_F(MonitorTest, PredictorExtrapolatesHighTimestamp) {
  Monitor::Options options;
  options.predict_high_timestamp = true;
  options.prediction_rate = 1.0;
  Monitor monitor(&clock_, options);
  monitor.RecordHighTimestamp("n", Timestamp{clock_.NowMicros(), 0});
  const Timestamp observed = monitor.KnownHighTimestamp("n");

  clock_.AdvanceMicros(SecondsToMicroseconds(10));
  const Timestamp predicted = monitor.KnownHighTimestamp("n");
  EXPECT_EQ(predicted.physical_us - observed.physical_us,
            SecondsToMicroseconds(10));
}

TEST_F(MonitorTest, PredictorRateScalesExtrapolation) {
  Monitor::Options options;
  options.predict_high_timestamp = true;
  options.prediction_rate = 0.5;
  Monitor monitor(&clock_, options);
  monitor.RecordHighTimestamp("n", Timestamp{clock_.NowMicros(), 0});
  clock_.AdvanceMicros(SecondsToMicroseconds(10));
  const Timestamp predicted = monitor.KnownHighTimestamp("n");
  EXPECT_EQ(predicted.physical_us - SecondsToMicroseconds(1000),
            SecondsToMicroseconds(5));
}

TEST_F(MonitorTest, ConservativeModeNeverExtrapolates) {
  monitor_.RecordHighTimestamp("n", Timestamp{123, 0});
  clock_.AdvanceMicros(SecondsToMicroseconds(100));
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{123, 0}));
}

TEST_F(MonitorTest, PNodeUpDefaultsToOne) {
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("ghost"), 1.0);
  monitor_.RecordLatency("n", 100);  // Latency alone is not an outcome.
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 1.0);
}

TEST_F(MonitorTest, FailuresLowerPNodeUp) {
  // Breaker disabled: this test checks the pure windowed estimate (three
  // consecutive failures would otherwise trip the breaker and force 0).
  Monitor::Options options;
  options.breaker_failure_threshold = 0;
  Monitor monitor(&clock_, options);
  monitor.RecordSuccess("n");
  monitor.RecordFailure("n");
  monitor.RecordFailure("n");
  monitor.RecordFailure("n");
  EXPECT_DOUBLE_EQ(monitor.PNodeUp("n"), 0.25);
}

TEST_F(MonitorTest, BreakerTripsAfterConsecutiveFailures) {
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  monitor_.RecordFailure("n");  // Third consecutive failure: trip.
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
  EXPECT_TRUE(monitor_.BreakerOpen("n"));
  EXPECT_EQ(monitor_.breaker_trips(), 1u);
  // While open: PNodeUp forced to 0 and probing is pointless.
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.0);
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, InterleavedSuccessNeverTripsBreaker) {
  for (int i = 0; i < 10; ++i) {
    monitor_.RecordFailure("n");
    monitor_.RecordFailure("n");
    monitor_.RecordSuccess("n");  // Resets the consecutive count.
  }
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
  EXPECT_EQ(monitor_.breaker_trips(), 0u);
}

TEST_F(MonitorTest, BreakerHalfOpensAfterCooldownAndClosesOnSuccess) {
  for (int i = 0; i < 3; ++i) {
    monitor_.RecordFailure("n");
  }
  ASSERT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
  clock_.AdvanceMicros(monitor_.options().breaker_cooldown_us + 1);
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kHalfOpen);
  // Half-open: exactly the probation probes run again.
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
  // PNodeUp is no longer forced to 0 (the windowed estimate returns).
  monitor_.RecordSuccess("n");
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
}

TEST_F(MonitorTest, HalfOpenFailureRearmsFullCooldown) {
  for (int i = 0; i < 3; ++i) {
    monitor_.RecordFailure("n");
  }
  clock_.AdvanceMicros(monitor_.options().breaker_cooldown_us + 1);
  ASSERT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kHalfOpen);
  monitor_.RecordFailure("n");  // Probation probe failed.
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
  // Re-opening an already-tripped breaker is not a new trip.
  EXPECT_EQ(monitor_.breaker_trips(), 1u);
  clock_.AdvanceMicros(monitor_.options().breaker_cooldown_us / 2);
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kOpen);
}

TEST_F(MonitorTest, SuccessFullyResetsBreakerHistory) {
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  monitor_.RecordSuccess("n");
  // The count restarted: two more failures must not trip a threshold of 3.
  monitor_.RecordFailure("n");
  monitor_.RecordFailure("n");
  EXPECT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kClosed);
}

TEST_F(MonitorTest, RecoverySuccessesRestorePNodeUp) {
  for (int i = 0; i < 4; ++i) {
    monitor_.RecordFailure("n");
  }
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.0);
  for (int i = 0; i < 12; ++i) {
    monitor_.RecordSuccess("n");
  }
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 0.75);
}

TEST_F(MonitorTest, OldFailuresAgeOut) {
  Monitor::Options options;
  options.latency_window.window_us = SecondsToMicroseconds(10);
  Monitor monitor(&clock_, options);
  monitor.RecordFailure("n");
  clock_.AdvanceMicros(SecondsToMicroseconds(60));
  EXPECT_DOUBLE_EQ(monitor.PNodeUp("n"), 1.0);
}

TEST_F(MonitorTest, PNodeSlaIncludesUpFactor) {
  monitor_.RecordHighTimestamp("n", Timestamp{500, 0});
  monitor_.RecordLatency("n", 1000);
  monitor_.RecordSuccess("n");
  monitor_.RecordFailure("n");
  // PCons 1 * PLat 1 * PUp 0.5.
  EXPECT_DOUBLE_EQ(monitor_.PNodeSla("n", Timestamp{400, 0}, 2000), 0.5);
}

TEST_F(MonitorTest, FailureCountsAsContactForProbing) {
  monitor_.RecordFailure("n");
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
  clock_.AdvanceMicros(monitor_.options().probe_interval_us + 1);
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, SnapshotReportsPerNodeState) {
  monitor_.RecordLatency("a", 100);
  monitor_.RecordLatency("a", 300);
  monitor_.RecordHighTimestamp("a", Timestamp{999, 0});
  monitor_.RecordSuccess("a");
  monitor_.RecordLatency("b", 5000);
  monitor_.RecordSuccess("b");
  monitor_.RecordFailure("b");

  const std::vector<Monitor::NodeSnapshot> snapshot = monitor_.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].node, "a");  // Sorted by name.
  EXPECT_EQ(snapshot[1].node, "b");
  EXPECT_EQ(snapshot[0].latency_samples, 2u);
  EXPECT_EQ(snapshot[0].mean_latency_us, 200);
  EXPECT_EQ(snapshot[0].high_timestamp, (Timestamp{999, 0}));
  EXPECT_EQ(snapshot[0].last_contact_us, clock_.NowMicros());
  EXPECT_DOUBLE_EQ(snapshot[0].p_up, 1.0);
  EXPECT_EQ(snapshot[0].breaker, Monitor::BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(snapshot[1].p_up, 0.5);
  EXPECT_EQ(snapshot[1].consecutive_failures, 1);
}

TEST_F(MonitorTest, SnapshotReflectsOpenBreaker) {
  for (int i = 0; i < monitor_.options().breaker_failure_threshold; ++i) {
    monitor_.RecordFailure("n");
  }
  const std::vector<Monitor::NodeSnapshot> snapshot = monitor_.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].breaker, Monitor::BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(snapshot[0].p_up, 0.0);
  EXPECT_EQ(BreakerStateName(snapshot[0].breaker), "open");
  EXPECT_EQ(BreakerStateName(Monitor::BreakerState::kClosed), "closed");
  EXPECT_EQ(BreakerStateName(Monitor::BreakerState::kHalfOpen), "half-open");
}

TEST_F(MonitorTest, NodesAreIndependent) {
  monitor_.RecordLatency("a", 100);
  monitor_.RecordLatency("b", 100000);
  monitor_.RecordHighTimestamp("a", Timestamp{999, 0});
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("a", 1000), 1.0);
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("b", 1000), 0.0);
  EXPECT_EQ(monitor_.KnownHighTimestamp("b"), Timestamp::Zero());
}

// --- Fleet priors (DESIGN.md Section 12) ---

monitoring::ConditionDigest MakeDigest(uint64_t version,
                                       const std::string& node,
                                       MicrosecondCount p50_us,
                                       uint64_t samples = 20,
                                       double p_up = 1.0) {
  monitoring::NodeCondition cond;
  cond.node = node;
  cond.sample_count = samples;
  cond.mean_latency_us = p50_us;
  cond.p50_latency_us = p50_us;
  cond.p95_latency_us = p50_us * 2;
  cond.p99_latency_us = p50_us * 3;
  cond.p_up = p_up;
  monitoring::ConditionDigest digest;
  digest.version = version;
  digest.reports_merged = 1;
  digest.nodes.push_back(std::move(cond));
  return digest;
}

TEST_F(MonitorTest, InstallDigestIsMonotonicInVersion) {
  EXPECT_TRUE(monitor_.InstallDigest(MakeDigest(3, "n", 5000)));
  EXPECT_EQ(monitor_.digest_version(), 3u);
  EXPECT_FALSE(monitor_.InstallDigest(MakeDigest(3, "n", 9000)));
  EXPECT_FALSE(monitor_.InstallDigest(MakeDigest(2, "n", 9000)));
  EXPECT_TRUE(monitor_.InstallDigest(MakeDigest(4, "n", 9000)));
  EXPECT_EQ(monitor_.digests_installed(), 2u);
}

TEST_F(MonitorTest, FreshPriorDrivesPNodeLatWithoutLocalSamples) {
  // Prior p50 = 5 ms: half the windowed mass sits below 5 ms.
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 5000)));
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 5000), 0.5);
  // Above the prior's p99 the estimate approaches 1.
  EXPECT_GT(monitor_.PNodeLat("n", 16000), 0.98);
  // Far below p50 it scales linearly toward 0.
  EXPECT_NEAR(monitor_.PNodeLat("n", 500), 0.05, 1e-9);
}

TEST_F(MonitorTest, LocalSamplesOutweighPriorAsTheyAccumulate) {
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 100000)));
  // Prior says slow (p50 = 100 ms); local reality is fast (all < 1 ms).
  const double blind = monitor_.PNodeLat("n", 2000);
  EXPECT_LT(blind, 0.05);
  for (int i = 0; i < 100; ++i) {
    monitor_.RecordLatency("n", 500);
  }
  // n = 100 local samples vs k <= 8 prior pseudo-samples: local wins.
  EXPECT_GT(monitor_.PNodeLat("n", 2000), 0.9);
}

TEST_F(MonitorTest, PriorDecaysToNothingPastTtl) {
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 100000)));
  EXPECT_LT(monitor_.PNodeLat("n", 2000), 0.05);
  clock_.AdvanceMicros(monitor_.options().prior_ttl_us);
  // Expired prior: back to the optimistic unknown estimate.
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 2000), 1.0);
}

TEST_F(MonitorTest, PriorPUpBlendsAndFadesTowardOptimism) {
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 5000, 20, 0.0)));
  // Fresh "node down" prior dominates...
  EXPECT_LT(monitor_.PNodeUp("n"), 0.05);
  // ...but drifts back toward the optimistic default as it ages.
  clock_.AdvanceMicros(monitor_.options().prior_ttl_us / 2);
  EXPECT_NEAR(monitor_.PNodeUp("n"), 0.5, 0.05);
  clock_.AdvanceMicros(monitor_.options().prior_ttl_us / 2);
  EXPECT_DOUBLE_EQ(monitor_.PNodeUp("n"), 1.0);
}

TEST_F(MonitorTest, ZeroSamplePriorCarriesNoLatencyEvidence) {
  // A digest node seen only via server self-reports (sample_count 0) must
  // not shape PNodeLat: percentiles without samples are meaningless.
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 0, /*samples=*/0)));
  EXPECT_DOUBLE_EQ(monitor_.PNodeLat("n", 1000), 1.0);
}

TEST_F(MonitorTest, DigestAdvancesHighTimestampMonotonically) {
  monitor_.RecordHighTimestamp("n", Timestamp{5000, 0});
  monitoring::ConditionDigest digest = MakeDigest(1, "n", 5000);
  digest.nodes[0].high_timestamp = Timestamp{4000, 0};
  digest.nodes[0].high_age_us = 100;
  // An older fleet high timestamp never rolls the local view back.
  ASSERT_TRUE(monitor_.InstallDigest(digest));
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{5000, 0}));
  digest = MakeDigest(2, "n", 5000);
  digest.nodes[0].high_timestamp = Timestamp{9000, 0};
  digest.nodes[0].high_age_us = 100;
  ASSERT_TRUE(monitor_.InstallDigest(digest));
  EXPECT_EQ(monitor_.KnownHighTimestamp("n"), (Timestamp{9000, 0}));
}

TEST_F(MonitorTest, FreshPriorSuppressesProbesThenStalenessResumes) {
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 5000)));
  EXPECT_FALSE(monitor_.NeedsProbe("n"));
  EXPECT_EQ(monitor_.probes_suppressed(), 1u);
  // Past the suppression window the never-contacted node probes again.
  clock_.AdvanceMicros(monitor_.options().prior_probe_suppress_us);
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, HalfOpenBreakerProbesDespiteFreshPrior) {
  for (int i = 0; i < monitor_.options().breaker_failure_threshold; ++i) {
    monitor_.RecordFailure("n");
  }
  clock_.AdvanceMicros(monitor_.options().breaker_cooldown_us);
  ASSERT_EQ(monitor_.Breaker("n"), Monitor::BreakerState::kHalfOpen);
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 5000)));
  // Probation probes are the only way the breaker closes; a prior must not
  // silence them.
  EXPECT_TRUE(monitor_.NeedsProbe("n"));
}

TEST_F(MonitorTest, StateVersionBumpsOnLocalEvidenceOnly) {
  const uint64_t v0 = monitor_.state_version();
  monitor_.RecordLatency("n", 100);
  monitor_.RecordSuccess("n");
  monitor_.RecordHighTimestamp("n", Timestamp{1, 0});
  monitor_.RecordQueueDelay("n", 50);
  EXPECT_EQ(monitor_.state_version(), v0 + 4);
  // Installing a digest is not local evidence: reporters must not re-report
  // (and the aggregator must not accept) unchanged state.
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 5000)));
  EXPECT_EQ(monitor_.state_version(), v0 + 4);
}

TEST_F(MonitorTest, ReportConditionsExcludePriorOnlyNodes) {
  monitor_.RecordLatency("local", 100);
  monitor_.RecordSuccess("local");
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "hearsay", 5000)));
  const std::vector<monitoring::NodeCondition> report =
      monitor_.BuildReportConditions();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].node, "local");
  EXPECT_EQ(report[0].sample_count, 1u);
}

TEST_F(MonitorTest, QueueDelayFallsBackToPrior) {
  monitoring::ConditionDigest digest = MakeDigest(1, "n", 5000);
  digest.nodes[0].queue_delay_us = 4000;
  ASSERT_TRUE(monitor_.InstallDigest(digest));
  // Fresh prior: full reported delay. No local EWMA exists yet.
  EXPECT_EQ(monitor_.QueueDelayUs("n"), 4000);
  // Local reports override the prior entirely.
  monitor_.RecordQueueDelay("n", 1000);
  EXPECT_EQ(monitor_.QueueDelayUs("n"),
            static_cast<MicrosecondCount>(
                1000 * monitor_.options().queue_delay_alpha));
}

TEST_F(MonitorTest, SnapshotReportsPriorFields) {
  monitor_.RecordLatency("n", 100);
  ASSERT_TRUE(monitor_.InstallDigest(MakeDigest(1, "n", 5000)));
  clock_.AdvanceMicros(2500);
  const std::vector<Monitor::NodeSnapshot> snapshot = monitor_.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].total_samples, 1u);
  EXPECT_TRUE(snapshot[0].has_prior);
  EXPECT_EQ(snapshot[0].prior_age_us, 2500);
}

// Applies `evidence` the way the client did before RecordReply existed: one
// locked Record* call per piece, in RecordReply's documented order.
void RecordSeparately(Monitor& monitor, std::string_view node,
                      const Monitor::ReplyEvidence& evidence) {
  if (evidence.rtt_us >= 0) {
    monitor.RecordLatency(node, evidence.rtt_us);
  }
  monitor.RecordConfig(evidence.config_epoch, evidence.config_primary);
  switch (evidence.outcome) {
    case Monitor::ReplyEvidence::Outcome::kFailure:
      monitor.RecordFailure(node);
      break;
    case Monitor::ReplyEvidence::Outcome::kSuccess:
      monitor.RecordSuccess(node);
      break;
    case Monitor::ReplyEvidence::Outcome::kOverload:
      monitor.RecordOverload(node, evidence.retry_after_us);
      break;
  }
  if (evidence.has_progress) {
    monitor.RecordHighTimestamp(node, evidence.high_timestamp);
    monitor.RecordQueueDelay(node, evidence.queue_delay_us);
  }
}

TEST_F(MonitorTest, RecordReplyLeavesTheStateOfTheSeparateCalls) {
  Monitor batched(&clock_);
  Monitor separate(&clock_);
  Random rng(7);
  const std::string nodes[] = {"a", "b", "c"};
  const std::string primaries[] = {"a", "b"};
  using Outcome = Monitor::ReplyEvidence::Outcome;
  for (int step = 0; step < 2000; ++step) {
    Monitor::ReplyEvidence evidence;
    if (rng.NextBool(0.8)) {
      evidence.rtt_us = rng.NextInt64InRange(0, 300000);
    }
    evidence.outcome = static_cast<Outcome>(rng.NextUint64(3));
    evidence.retry_after_us =
        rng.NextBool(0.5) ? rng.NextInt64InRange(1, 2000000) : 0;
    if (rng.NextBool(0.3)) {
      evidence.config_epoch = rng.NextUint64(20);
      evidence.config_primary = primaries[rng.NextUint64(2)];
    }
    evidence.has_progress = rng.NextBool(0.6);
    evidence.high_timestamp =
        Timestamp{rng.NextInt64InRange(0, 1000000),
                  static_cast<uint32_t>(rng.NextUint64(3))};
    evidence.queue_delay_us = rng.NextInt64InRange(0, 50000);
    const std::string& node = nodes[rng.NextUint64(3)];
    batched.RecordReply(node, evidence);
    RecordSeparately(separate, node, evidence);
    clock_.AdvanceMicros(rng.NextInt64InRange(0, 20000));
  }

  EXPECT_EQ(batched.state_version(), separate.state_version());
  EXPECT_EQ(batched.samples_recorded(), separate.samples_recorded());
  EXPECT_EQ(batched.overload_rejections(), separate.overload_rejections());
  EXPECT_EQ(batched.breaker_trips(), separate.breaker_trips());
  EXPECT_EQ(batched.CurrentConfig().epoch, separate.CurrentConfig().epoch);
  EXPECT_EQ(batched.CurrentConfig().primary,
            separate.CurrentConfig().primary);
  EXPECT_EQ(batched.BuildReportConditions(),
            separate.BuildReportConditions());
  const std::vector<Monitor::NodeSnapshot> got = batched.Snapshot();
  const std::vector<Monitor::NodeSnapshot> want = separate.Snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i].node);
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_EQ(got[i].latency_samples, want[i].latency_samples);
    EXPECT_EQ(got[i].mean_latency_us, want[i].mean_latency_us);
    EXPECT_EQ(got[i].p99_latency_us, want[i].p99_latency_us);
    EXPECT_EQ(got[i].high_timestamp, want[i].high_timestamp);
    EXPECT_EQ(got[i].high_observed_at_us, want[i].high_observed_at_us);
    EXPECT_EQ(got[i].last_contact_us, want[i].last_contact_us);
    EXPECT_EQ(got[i].p_up, want[i].p_up);
    EXPECT_EQ(got[i].breaker, want[i].breaker);
    EXPECT_EQ(got[i].consecutive_failures, want[i].consecutive_failures);
    EXPECT_EQ(got[i].overloaded, want[i].overloaded);
    EXPECT_EQ(got[i].queue_delay_us, want[i].queue_delay_us);
    EXPECT_EQ(got[i].total_samples, want[i].total_samples);
    EXPECT_EQ(batched.QueueDelayUs(got[i].node),
              separate.QueueDelayUs(got[i].node));
  }
}

TEST_F(MonitorTest, GatheredInputsMatchSingleNodeQueries) {
  Monitor::Options options;
  options.predict_high_timestamp = true;
  options.prediction_rate = 0.5;
  Monitor monitor(&clock_, options);
  for (int i = 0; i < 10; ++i) {
    monitor.RecordLatency("busy", 1000 * (i + 1));
  }
  monitor.RecordQueueDelay("busy", 4000);
  monitor.RecordHighTimestamp("busy", Timestamp{5000, 0});
  monitor.RecordOverload("busy", 0);
  monitor.RecordFailure("down");
  monitor.RecordFailure("down");
  monitor.RecordFailure("down");
  clock_.AdvanceMicros(1000);

  const MicrosecondCount bounds[] = {0, 3000, 9000, 20000};
  Monitor::SelectionInputs inputs[3];
  inputs[0].node = "busy";
  inputs[1].node = "down";
  inputs[2].node = "ghost";
  double p_lat[3 * 4];
  monitor.GatherSelectionInputs(inputs, bounds, p_lat);
  for (size_t i = 0; i < 3; ++i) {
    const Monitor::SelectionInputs& in = inputs[i];
    SCOPED_TRACE(in.node);
    EXPECT_EQ(in.known_high, monitor.KnownHighTimestamp(in.node));
    EXPECT_EQ(in.queue_delay_us, monitor.QueueDelayUs(in.node));
    EXPECT_EQ(in.p_up, monitor.PNodeUp(in.node));
    EXPECT_EQ(in.overloaded, monitor.IsOverloaded(in.node));
    EXPECT_EQ(in.breaker, monitor.Breaker(in.node));
    EXPECT_EQ(in.mean_latency_us, monitor.MeanLatency(in.node));
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(p_lat[i * 4 + r],
                monitor.PNodeLat(in.node, std::max<MicrosecondCount>(
                                              0, bounds[r] -
                                                     in.queue_delay_us)));
    }
  }
  EXPECT_EQ(inputs[0].queue_delay_us, 1200);  // 0.3 * 4000.
  EXPECT_EQ(inputs[0].known_high.physical_us, 5500);  // 5000 + 0.5 * 1000.
  EXPECT_TRUE(inputs[0].overloaded);
  EXPECT_EQ(inputs[1].breaker, Monitor::BreakerState::kOpen);
  EXPECT_EQ(inputs[1].p_up, 0.0);
  EXPECT_EQ(p_lat[2 * 4 + 1], 1.0);  // Unknown node: optimistic.
}

}  // namespace
}  // namespace pileus::core
