// Tests for SelectTarget (paper Figure 8): expected-utility maximization,
// the tie semantics, tie-break policies, and the parallel-Get candidate set.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/core/selection.h"

namespace pileus::core {
namespace {

constexpr MicrosecondCount kNow = SecondsToMicroseconds(1000);

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest()
      : clock_(kNow), monitor_(&clock_), session_(ShoppingCartSla()) {
    replicas_ = {
        ReplicaView{"primary", /*authoritative=*/true},
        ReplicaView{"near", false},
        ReplicaView{"far", false},
    };
  }

  // Fills the monitor so `node` has the given mean RTT (all samples equal)
  // and high timestamp.
  void Teach(const std::string& node, MicrosecondCount rtt,
             Timestamp high) {
    for (int i = 0; i < 10; ++i) {
      monitor_.RecordLatency(node, rtt);
    }
    monitor_.RecordHighTimestamp(node, high);
  }

  SelectionResult Select(const Sla& sla, std::string_view key = "k") {
    return SelectTarget(sla, replicas_, session_, key, clock_.NowMicros(),
                        monitor_, options_, &rng_);
  }

  ManualClock clock_;
  Monitor monitor_;
  Session session_;
  std::vector<ReplicaView> replicas_;
  SelectionOptions options_;
  Random rng_{1};
};

TEST_F(SelectionTest, EmptyReplicasYieldsInvalidResult) {
  const SelectionResult result =
      SelectTarget(ShoppingCartSla(), {}, session_, "k", kNow, monitor_,
                   options_, &rng_);
  EXPECT_EQ(result.target_rank, -1);
  EXPECT_EQ(result.node_index, -1);
}

TEST_F(SelectionTest, StrongGoesOnlyToAuthoritative) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{1, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{999999, 0});
  const Sla sla = Sla().Add(Guarantee::Strong(), SecondsToMicroseconds(10),
                            1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.target_rank, 0);
  EXPECT_EQ(result.node_index, 0);  // The primary despite being slower.
}

TEST_F(SelectionTest, EventualPrefersClosestOnTies) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(300), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.node_index, 1);
  EXPECT_EQ(result.candidates.size(), 3u);  // All tied at utility 1.
}

TEST_F(SelectionTest, StaleNodeLosesOnConsistency) {
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{600, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});  // Stale.
  const Sla sla =
      Sla().Add(Guarantee::ReadMyWrites(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.node_index, 0);  // Primary: near can't provide RMW.
}

TEST_F(SelectionTest, AuthoritativeSatisfiesAnyThreshold) {
  // Even with no recorded high timestamp, the primary qualifies for
  // timestamp-based guarantees.
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp::Zero());
  const Sla sla =
      Sla().Add(Guarantee::ReadMyWrites(), SecondsToMicroseconds(10), 1.0);
  EXPECT_EQ(Select(sla).node_index, 0);
}

TEST_F(SelectionTest, FallsToSecondSubSlaWhenFirstUnattainable) {
  // Password-checking shape: strong@150ms impossible (primary too far),
  // eventual@150ms possible locally.
  Teach("primary", MillisecondsToMicroseconds(400), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(300), Timestamp{100, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::Strong(),
                           MillisecondsToMicroseconds(150), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(150), 0.5);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.target_rank, 1);
  EXPECT_EQ(result.node_index, 1);
  EXPECT_DOUBLE_EQ(result.expected_utility, 0.5);
}

TEST_F(SelectionTest, HigherRankWinsEqualExpectedUtility) {
  // Figure 8 semantics: when a later subSLA pair merely equals maxutil, the
  // target stays with the earlier subSLA.
  Teach("primary", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::Strong(), SecondsToMicroseconds(10), 1.0)
                      .Add(Guarantee::Eventual(), SecondsToMicroseconds(10),
                           1.0);
  const SelectionResult result = Select(sla);
  EXPECT_EQ(result.target_rank, 0);
}

TEST_F(SelectionTest, SecondSubSlaCanBeatFirstOnProbability) {
  // The paper's example (Section 4.6.1): if subSLA 2 is nearly as valuable
  // and far more likely, it becomes the target.
  session_.RecordPut("k", Timestamp{500, 0});
  // Primary is slow: only 20% of samples under 300 ms.
  for (int i = 0; i < 2; ++i) {
    monitor_.RecordLatency("primary", MillisecondsToMicroseconds(100));
  }
  for (int i = 0; i < 8; ++i) {
    monitor_.RecordLatency("primary", MillisecondsToMicroseconds(500));
  }
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});
  Teach("far", MillisecondsToMicroseconds(400), Timestamp{400, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(),
                           MillisecondsToMicroseconds(300), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(300), 0.9);
  const SelectionResult result = Select(sla);
  // SubSLA1 via primary: 0.2 * 1.0 = 0.2. SubSLA2 via near: 1.0 * 0.9.
  EXPECT_EQ(result.target_rank, 1);
  EXPECT_EQ(result.node_index, 1);
}

TEST_F(SelectionTest, RandomTieBreakUsesAllCandidates) {
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  options_.tie_break = TieBreak::kRandom;
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  std::set<int> chosen;
  for (int i = 0; i < 100; ++i) {
    chosen.insert(Select(sla).node_index);
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST_F(SelectionTest, FreshestTieBreakPicksHighestTimestamp) {
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(10), Timestamp{300, 0});
  Teach("far", MillisecondsToMicroseconds(10), Timestamp{200, 0});
  options_.tie_break = TieBreak::kFreshest;
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  EXPECT_EQ(Select(sla).node_index, 1);
}

TEST_F(SelectionTest, CandidateEpsilonWidensFanoutSet) {
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(100), Timestamp{600, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});
  Teach("far", MillisecondsToMicroseconds(5), Timestamp{400, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(),
                           MillisecondsToMicroseconds(300), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(300), 0.8);

  // Exact ties only: the primary (1.0) is the sole candidate.
  const SelectionResult tight = Select(sla);
  EXPECT_EQ(tight.node_index, 0);
  EXPECT_EQ(tight.candidates.size(), 1u);

  // With epsilon 0.3 the eventual nodes (best 0.8) join the fan-out set, but
  // the chosen node is unchanged.
  options_.candidate_epsilon = 0.3;
  const SelectionResult wide = Select(sla);
  EXPECT_EQ(wide.node_index, 0);
  EXPECT_EQ(wide.candidates.size(), 3u);
  EXPECT_EQ(wide.candidates[0], 0);  // Chosen node first.
}

TEST_F(SelectionTest, ExpectedUtilityHelperMatchesManualProduct) {
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{600, 0});
  const SubSla sub{Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(300),
                   0.7};
  EXPECT_DOUBLE_EQ(
      ExpectedUtility(sub, replicas_[1], session_, "k", kNow, monitor_),
      0.7);  // PCons 1 * PLat 1 * utility.
  const SubSla slow{Guarantee::ReadMyWrites(), 500, 0.7};  // 0.5 ms target.
  EXPECT_DOUBLE_EQ(
      ExpectedUtility(slow, replicas_[1], session_, "k", kNow, monitor_),
      0.0);  // No sample under 0.5 ms.
}

TEST_F(SelectionTest, DownNodeIsAvoided) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(50), Timestamp{100, 0});
  // The near node is dead: every recent outcome is a failure.
  for (int i = 0; i < 10; ++i) {
    monitor_.RecordFailure("near");
  }
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult result = Select(sla);
  EXPECT_NE(result.node_index, 1);
  EXPECT_EQ(result.node_index, 2);  // Next closest live node.
}

TEST_F(SelectionTest, DegradedNodeLosesToHealthyOne) {
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(50), Timestamp{100, 0});
  // near answers only half the time.
  for (int i = 0; i < 5; ++i) {
    monitor_.RecordSuccess("near");
    monitor_.RecordFailure("near");
    monitor_.RecordSuccess("far");
  }
  Teach("primary", MillisecondsToMicroseconds(400), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  // far: 1.0 expected; near: 0.5 expected.
  EXPECT_EQ(Select(sla).node_index, 2);
}

TEST_F(SelectionTest, BoundedUsesNow) {
  Teach("near", MillisecondsToMicroseconds(1),
        Timestamp{kNow - SecondsToMicroseconds(10), 0});
  const Sla sla = Sla().Add(Guarantee::BoundedSeconds(30),
                            SecondsToMicroseconds(10), 1.0);
  // Within the bound now...
  EXPECT_EQ(Select(sla).expected_utility, 1.0);
  // ...but not after 25 more seconds without fresh evidence.
  clock_.AdvanceMicros(SecondsToMicroseconds(25));
  const SelectionResult result = Select(sla);
  // Only the (authoritative) primary can still promise the bound.
  EXPECT_EQ(result.node_index, 0);
}

// Property test: against an oracle. For randomized monitor/session states,
// SelectTarget's expected_utility must equal the brute-force maximum over
// every (subSLA, replica) pair, and the chosen node must achieve it.
TEST_F(SelectionTest, MatchesBruteForceOracleOnRandomStates) {
  Random rng(2026);
  const Sla slas[] = {ShoppingCartSla(), PasswordCheckingSla(),
                      WebApplicationSla()};
  for (int trial = 0; trial < 500; ++trial) {
    Monitor monitor(&clock_);
    Session session(ShoppingCartSla());
    // Random evidence for each node.
    for (const ReplicaView& replica : replicas_) {
      const int samples = static_cast<int>(rng.NextUint64(12));
      for (int s = 0; s < samples; ++s) {
        monitor.RecordLatency(
            replica.name,
            MillisecondsToMicroseconds(1 + rng.NextUint64(600)));
      }
      if (rng.NextBool(0.8)) {
        monitor.RecordHighTimestamp(
            replica.name,
            Timestamp{clock_.NowMicros() -
                          static_cast<MicrosecondCount>(
                              rng.NextUint64(SecondsToMicroseconds(120))),
                      0});
      }
      if (rng.NextBool(0.2)) {
        monitor.RecordFailure(replica.name);
      }
    }
    // Random session history.
    if (rng.NextBool(0.5)) {
      session.RecordPut("k", Timestamp{clock_.NowMicros() -
                                           static_cast<MicrosecondCount>(
                                               rng.NextUint64(1000000)),
                                       0});
    }
    if (rng.NextBool(0.5)) {
      session.RecordGet("k", Timestamp{clock_.NowMicros() -
                                           static_cast<MicrosecondCount>(
                                               rng.NextUint64(1000000)),
                                       0});
    }

    const Sla& sla = slas[trial % 3];
    const SelectionResult result =
        SelectTarget(sla, replicas_, session, "k", clock_.NowMicros(),
                     monitor, options_, &rng_);

    double oracle_max = 0.0;
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      for (const ReplicaView& replica : replicas_) {
        oracle_max = std::max(
            oracle_max, ExpectedUtility(sla[rank], replica, session, "k",
                                        clock_.NowMicros(), monitor));
      }
    }
    ASSERT_DOUBLE_EQ(result.expected_utility, oracle_max) << "trial " << trial;

    // The chosen node achieves the maximum through some subSLA.
    double chosen_best = 0.0;
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      chosen_best = std::max(
          chosen_best,
          ExpectedUtility(sla[rank], replicas_[result.node_index], session,
                          "k", clock_.NowMicros(), monitor));
    }
    ASSERT_DOUBLE_EQ(chosen_best, oracle_max) << "trial " << trial;

    // A target subSLA was always selected. (Note: Figure 8 ties are pooled
    // across subSLAs, so the *chosen node* may reach maxutil through a
    // different subSLA than the target - that is the paper's semantics.)
    ASSERT_GE(result.target_rank, 0);
  }
}

// --- Differential test: the batched monitor read changes no decision ---

// Figure 8 written against the public single-node Monitor queries only, one
// locked call per estimate. SelectTarget gathers the same estimates in one
// locked pass; on a fixed clock both must decide identically, bit for bit.
SelectionResult OracleSelect(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const CacheView* cached, const Session& session,
                             std::string_view key, MicrosecondCount now_us,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng) {
  const auto floor = [&](const SubSla& sub) {
    return session.MinReadTimestamp(sub.consistency, key, now_us);
  };
  const auto utility = [&](const SubSla& sub, const ReplicaView& replica) {
    const bool strong = sub.consistency.RequiresAuthoritative();
    const double p_cons =
        replica.authoritative
            ? 1.0
            : (strong ? 0.0 : monitor.PNodeCons(replica.name, floor(sub)));
    if (p_cons == 0.0) {
      return 0.0;
    }
    const MicrosecondCount budget = std::max<MicrosecondCount>(
        0, sub.latency_us - monitor.QueueDelayUs(replica.name));
    double util = p_cons * monitor.PNodeLat(replica.name, budget) *
                  monitor.PNodeUp(replica.name) * sub.utility;
    if (!strong) {
      util *= monitor.POverload(replica.name, sub.utility);
    }
    return util;
  };

  SelectionResult result;
  double cache_util = 0.0;
  int cache_rank = -1;
  for (size_t rank = 0; cached != nullptr && rank < sla.size(); ++rank) {
    const SubSla& sub = sla[rank];
    const double util = !sub.consistency.RequiresAuthoritative() &&
                                !(cached->high_timestamp < floor(sub)) &&
                                cached->latency_us <= sub.latency_us
                            ? sub.utility
                            : 0.0;
    if (util > cache_util) {
      cache_util = util;
      cache_rank = static_cast<int>(rank);
    }
  }
  if (replicas.empty()) {
    if (cache_rank >= 0) {
      result.cache_selected = true;
      result.target_rank = cache_rank;
      result.expected_utility = cache_util;
    }
    return result;
  }

  std::vector<char> eligible(replicas.size(), 1);
  if (options.avoid_open_breaker) {
    bool any = false;
    for (size_t i = 0; i < replicas.size(); ++i) {
      eligible[i] = monitor.BreakerOpen(replicas[i].name) ? 0 : 1;
      any = any || eligible[i] != 0;
    }
    if (!any) {
      std::fill(eligible.begin(), eligible.end(), 1);
    }
  }
  const auto has = [&result](int i) {
    return std::find(result.candidates.begin(), result.candidates.end(), i) !=
           result.candidates.end();
  };
  double maxutil = -1.0;
  std::vector<double> node_best(replicas.size(), -1.0);
  for (size_t rank = 0; rank < sla.size(); ++rank) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (eligible[i] == 0) {
        continue;
      }
      const double util = utility(sla[rank], replicas[i]);
      node_best[i] = std::max(node_best[i], util);
      if (util > maxutil) {
        maxutil = util;
        result.target_rank = static_cast<int>(rank);
        result.candidates = {static_cast<int>(i)};
      } else if (util == maxutil && !has(static_cast<int>(i))) {
        result.candidates.push_back(static_cast<int>(i));
      }
    }
  }
  result.expected_utility = std::max(maxutil, 0.0);

  int chosen = result.candidates.front();
  for (int c : result.candidates) {
    const std::string& a = replicas[c].name;
    const std::string& b = replicas[chosen].name;
    if ((options.tie_break == TieBreak::kClosest &&
         monitor.MeanLatency(a) < monitor.MeanLatency(b)) ||
        (options.tie_break == TieBreak::kFreshest &&
         monitor.KnownHighTimestamp(a) > monitor.KnownHighTimestamp(b))) {
      chosen = c;
    }
  }
  if (options.tie_break == TieBreak::kRandom && rng != nullptr &&
      result.candidates.size() > 1) {
    chosen = result.candidates[rng->NextUint64(result.candidates.size())];
  }
  result.node_index = chosen;

  if (options.candidate_epsilon > 0.0) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (eligible[i] != 0 &&
          node_best[i] >= maxutil - options.candidate_epsilon &&
          !has(static_cast<int>(i))) {
        result.candidates.push_back(static_cast<int>(i));
      }
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end(),
            [&](int a, int b) {
              if (a == chosen || b == chosen) {
                return a == chosen && b != chosen;
              }
              return monitor.MeanLatency(replicas[a].name) <
                     monitor.MeanLatency(replicas[b].name);
            });

  if (cache_rank >= 0 &&
      (cache_util > maxutil ||
       (cache_util == maxutil && cache_rank <= result.target_rank))) {
    result.cache_selected = true;
    result.target_rank = cache_rank;
    result.expected_utility = cache_util;
  }
  return result;
}

TEST(SelectionDifferentialTest, BatchedReadDecidesLikeSingleNodeQueries) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  const Sla slas[] = {
      ShoppingCartSla(), PasswordCheckingSla(), WebApplicationSla(),
      Sla()
          .Add(Guarantee::Strong(), MillisecondsToMicroseconds(50), 1.0)
          .Add(Guarantee::Causal(), MillisecondsToMicroseconds(100), 0.7)
          .Add(Guarantee::Monotonic(), MillisecondsToMicroseconds(200), 0.4)
          .Add(Guarantee::BoundedSeconds(5), MillisecondsToMicroseconds(400),
               0.2)
          .Add(Guarantee::Eventual(), SecondsToMicroseconds(1), 0.05)};
  Random rng(17);
  const auto between = [&rng](int64_t lo, int64_t hi) {
    return rng.NextInt64InRange(lo, hi);
  };
  int cache_wins = 0;
  int open_breakers = 0;
  int half_open_breakers = 0;
  int overloaded = 0;
  int priors = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    ManualClock clock(kNow);
    Monitor::Options monitor_options;
    monitor_options.latency_window.window_us = SecondsToMicroseconds(30);
    monitor_options.predict_high_timestamp = rng.NextBool(0.3);
    monitor_options.prediction_rate = 0.25 + rng.NextDouble();
    monitor_options.breaker_failure_threshold =
        static_cast<int>(rng.NextUint64(4));
    monitor_options.breaker_cooldown_us = SecondsToMicroseconds(5);
    Monitor monitor(&clock, monitor_options);
    Session session(ShoppingCartSla());

    // A fleet digest installed a little in the past, covering some nodes.
    if (rng.NextBool(0.4)) {
      monitoring::ConditionDigest digest;
      digest.version = 1;
      for (const std::string& name : names) {
        if (!rng.NextBool(0.6)) {
          continue;
        }
        monitoring::NodeCondition cond;
        cond.node = name;
        cond.sample_count = rng.NextBool(0.8) ? rng.NextUint64(100) : 0;
        cond.p50_latency_us = between(1000, 200000);
        cond.p95_latency_us = cond.p50_latency_us + between(0, 200000);
        cond.p99_latency_us = cond.p95_latency_us + between(0, 200000);
        cond.high_timestamp = Timestamp{kNow - between(0, 20000000), 0};
        cond.high_age_us = rng.NextBool(0.8) ? between(0, 5000000) : -1;
        cond.p_up = rng.NextDouble();
        cond.queue_delay_us = rng.NextBool(0.5) ? between(0, 100000) : 0;
        digest.nodes.push_back(cond);
      }
      monitor.InstallDigest(digest);
      ++priors;
    }
    // Local evidence, spread over the last minute so some samples age out
    // of the 30 s window.
    for (const std::string& name : names) {
      if (rng.NextBool(0.2)) {
        continue;  // Never heard of: every estimate takes its default.
      }
      const int samples = static_cast<int>(rng.NextUint64(20));
      for (int s = 0; s < samples; ++s) {
        clock.AdvanceMicros(between(0, 3000000));
        monitor.RecordLatency(name, between(500, 500000));
      }
      if (rng.NextBool(0.8)) {
        monitor.RecordHighTimestamp(
            name, Timestamp{kNow + between(-30000000, 30000000), 0});
      }
      if (rng.NextBool(0.4)) {
        monitor.RecordQueueDelay(name, between(0, 150000));
      }
      const int failures = static_cast<int>(rng.NextUint64(5));
      for (int f = 0; f < failures; ++f) {
        monitor.RecordFailure(name);
      }
      if (rng.NextBool(0.3)) {
        monitor.RecordSuccess(name);
      }
    }
    // Moving on 0-8 s puts some breakers past their cooldown (half-open)
    // and ages the prior. Overload windows open now, and the last step puts
    // some of them behind us.
    clock.AdvanceMicros(between(0, 8000000));
    for (const std::string& name : names) {
      if (rng.NextBool(0.3)) {
        monitor.RecordOverload(name,
                               rng.NextBool(0.5) ? between(1, 2000000) : 0);
      }
    }
    clock.AdvanceMicros(between(0, 1000000));
    const MicrosecondCount now = clock.NowMicros();
    if (rng.NextBool(0.6)) {
      session.RecordPut("k", Timestamp{now - between(0, 40000000), 0});
    }
    if (rng.NextBool(0.6)) {
      session.RecordGet("k", Timestamp{now - between(0, 40000000), 0});
    }

    std::vector<ReplicaView> replicas;
    const size_t count = rng.NextUint64(names.size() + 1);
    for (size_t i = 0; i < count; ++i) {
      replicas.push_back(ReplicaView{names[i], rng.NextBool(0.3)});
    }
    for (const ReplicaView& replica : replicas) {
      const Monitor::BreakerState breaker = monitor.Breaker(replica.name);
      open_breakers += breaker == Monitor::BreakerState::kOpen;
      half_open_breakers += breaker == Monitor::BreakerState::kHalfOpen;
      overloaded += monitor.IsOverloaded(replica.name);
    }
    std::optional<CacheView> cache;
    if (rng.NextBool(0.5)) {
      cache = CacheView{Timestamp{now - between(0, 40000000), 0},
                        rng.NextBool(0.8) ? 0 : between(0, 500000)};
    }
    SelectionOptions options;
    options.tie_break = static_cast<TieBreak>(rng.NextUint64(3));
    options.candidate_epsilon = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
    options.avoid_open_breaker = rng.NextBool(0.8);
    const Sla& sla = slas[rng.NextUint64(std::size(slas))];
    const CacheView* cached = cache ? &*cache : nullptr;

    Random rng_a(static_cast<uint64_t>(trial));
    Random rng_b(static_cast<uint64_t>(trial));
    const SelectionResult got = SelectTarget(
        sla, replicas, cached, session, "k", now, monitor, options, &rng_a);
    const SelectionResult want = OracleSelect(
        sla, replicas, cached, session, "k", now, monitor, options, &rng_b);
    ASSERT_EQ(got.target_rank, want.target_rank) << "trial " << trial;
    ASSERT_EQ(got.node_index, want.node_index) << "trial " << trial;
    ASSERT_EQ(got.cache_selected, want.cache_selected) << "trial " << trial;
    ASSERT_EQ(got.expected_utility, want.expected_utility)
        << "trial " << trial;
    ASSERT_EQ(got.candidates, want.candidates) << "trial " << trial;
    cache_wins += got.cache_selected;
  }
  // The random states reached every branch the batched pass replaced.
  EXPECT_GT(cache_wins, 100);
  EXPECT_GT(open_breakers, 100);
  EXPECT_GT(half_open_breakers, 100);
  EXPECT_GT(overloaded, 100);
  EXPECT_GT(priors, 100);
}

// --- The client cache as a zero-RTT pseudo-replica ---

class CacheSelectionTest : public SelectionTest {
 protected:
  SelectionResult SelectWithCache(const Sla& sla, const CacheView& cached,
                                  std::string_view key = "k") {
    return SelectTarget(sla, replicas_, &cached, session_, key,
                        clock_.NowMicros(), monitor_, options_, &rng_);
  }
};

TEST_F(CacheSelectionTest, CacheWinsExactTieAtSameRank) {
  // Figure 8 keeps the earlier target on equality; within a rank the cache
  // is considered first, so an exact tie at the same rank serves locally.
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(300), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const CacheView cached{Timestamp{50, 0}, 0};
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_TRUE(result.cache_selected);
  EXPECT_EQ(result.target_rank, 0);
  EXPECT_DOUBLE_EQ(result.expected_utility, 1.0);
  // The network fallback is still computed and still excludes the cache.
  EXPECT_EQ(result.node_index, 1);
}

TEST_F(CacheSelectionTest, CacheAtLaterRankLosesToEarlierRankReplica) {
  // The cache's best subSLA is eventual (its entry predates the session's
  // write), the primary satisfies read-my-writes at the same utility: the
  // earlier-rank replica keeps the target.
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(1), Timestamp{600, 0});
  Teach("near", MillisecondsToMicroseconds(5), Timestamp{400, 0});
  Teach("far", MillisecondsToMicroseconds(5), Timestamp{400, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(),
                           SecondsToMicroseconds(10), 1.0)
                      .Add(Guarantee::Eventual(), SecondsToMicroseconds(10),
                           1.0);
  const CacheView cached{Timestamp{400, 0}, 0};  // Below the RMW floor.
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_FALSE(result.cache_selected);
  EXPECT_EQ(result.target_rank, 0);
  EXPECT_EQ(result.node_index, 0);
}

TEST_F(CacheSelectionTest, CacheBeatsReplicasWhenFresherThanFloor) {
  // Only the cache clears the read-my-writes floor within the latency
  // budget: the primary is too far, the secondaries too stale.
  session_.RecordPut("k", Timestamp{500, 0});
  Teach("primary", MillisecondsToMicroseconds(400), Timestamp{600, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{400, 0});
  const Sla sla = Sla()
                      .Add(Guarantee::ReadMyWrites(),
                           MillisecondsToMicroseconds(100), 1.0)
                      .Add(Guarantee::Eventual(),
                           MillisecondsToMicroseconds(100), 0.5);
  const CacheView cached{Timestamp{500, 0}, 0};
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_TRUE(result.cache_selected);
  EXPECT_EQ(result.target_rank, 0);
  EXPECT_DOUBLE_EQ(result.expected_utility, 1.0);
}

TEST_F(CacheSelectionTest, StrongIsNeverServedFromCache) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Strong(), SecondsToMicroseconds(10), 1.0);
  // Even an impossibly fresh entry: the cache is not authoritative.
  const CacheView cached{Timestamp{kNow, 0}, 0};
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_FALSE(result.cache_selected);
  EXPECT_EQ(result.node_index, 0);
}

TEST_F(CacheSelectionTest, SlowCacheTierLosesOnLatency) {
  Teach("primary", MillisecondsToMicroseconds(150), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(300), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), MillisecondsToMicroseconds(5), 1.0);
  // A modelled local tier slower than the subSLA's latency budget.
  const CacheView cached{Timestamp{100, 0}, MillisecondsToMicroseconds(10)};
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_FALSE(result.cache_selected);
  EXPECT_EQ(result.node_index, 1);
}

TEST_F(CacheSelectionTest, CacheNeverJoinsCandidatesEvenWithEpsilon) {
  // Parallel-Get fan-out is a network concept: with a wide epsilon the
  // candidate list still holds only replica indices, cache win or not.
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("far", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  options_.candidate_epsilon = 1.0;
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const CacheView cached{Timestamp{100, 0}, 0};
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_TRUE(result.cache_selected);
  EXPECT_EQ(result.candidates.size(), 3u);
  for (const int index : result.candidates) {
    EXPECT_GE(index, 0);
    EXPECT_LT(index, 3);
  }
}

TEST_F(CacheSelectionTest, FreshestTieBreakStillGovernsNetworkFallback) {
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(10), Timestamp{300, 0});
  Teach("far", MillisecondsToMicroseconds(10), Timestamp{200, 0});
  options_.tie_break = TieBreak::kFreshest;
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const CacheView cached{Timestamp{999, 0}, 0};
  const SelectionResult result = SelectWithCache(sla, cached);
  // The cache serves, but the fallback node is still the freshest replica —
  // the pseudo-replica never participates in replica tie-breaking.
  EXPECT_TRUE(result.cache_selected);
  EXPECT_EQ(result.node_index, 1);
}

TEST_F(CacheSelectionTest, EmptyReplicaSetCanStillServeFromCache) {
  replicas_.clear();
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const CacheView cached{Timestamp{100, 0}, 0};
  const SelectionResult result = SelectWithCache(sla, cached);
  EXPECT_TRUE(result.cache_selected);
  EXPECT_EQ(result.target_rank, 0);
  EXPECT_EQ(result.node_index, -1);  // Nowhere to fall back to.
}

TEST_F(CacheSelectionTest, NullCacheMatchesPlainSelection) {
  Teach("primary", MillisecondsToMicroseconds(10), Timestamp{100, 0});
  Teach("near", MillisecondsToMicroseconds(1), Timestamp{100, 0});
  const Sla sla =
      Sla().Add(Guarantee::Eventual(), SecondsToMicroseconds(10), 1.0);
  const SelectionResult with_null =
      SelectTarget(sla, replicas_, nullptr, session_, "k", clock_.NowMicros(),
                   monitor_, options_, &rng_);
  const SelectionResult plain = Select(sla);
  EXPECT_FALSE(with_null.cache_selected);
  EXPECT_EQ(with_null.node_index, plain.node_index);
  EXPECT_EQ(with_null.target_rank, plain.target_rank);
  EXPECT_DOUBLE_EQ(with_null.expected_utility, plain.expected_utility);
}

TEST_F(CacheSelectionTest, CacheExpectedUtilityIsDeterministic) {
  const auto floor_400 = [](const Guarantee&) { return Timestamp{400, 0}; };
  const SubSla eventual{Guarantee::Eventual(), MillisecondsToMicroseconds(100),
                        0.7};
  const SubSla strong{Guarantee::Strong(), SecondsToMicroseconds(10), 1.0};
  // Fresh enough + fast enough: full utility, no probabilities involved.
  EXPECT_DOUBLE_EQ(
      CacheExpectedUtility(eventual, CacheView{Timestamp{500, 0}, 0},
                           floor_400),
      0.7);
  // Below the floor: zero.
  EXPECT_DOUBLE_EQ(
      CacheExpectedUtility(eventual, CacheView{Timestamp{300, 0}, 0},
                           floor_400),
      0.0);
  // Slower than the subSLA's budget: zero.
  EXPECT_DOUBLE_EQ(
      CacheExpectedUtility(
          eventual,
          CacheView{Timestamp{500, 0}, MillisecondsToMicroseconds(200)},
          floor_400),
      0.0);
  // Strong: always zero, regardless of freshness.
  EXPECT_DOUBLE_EQ(
      CacheExpectedUtility(strong, CacheView{Timestamp{500, 0}, 0},
                           [](const Guarantee&) { return Timestamp::Zero(); }),
      0.0);
}

}  // namespace
}  // namespace pileus::core
