// Tests for the replication agents: the pull state machine, blocking and
// threaded pullers, ordering, heartbeats, and failure handling.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "src/storage/tablet.h"

namespace pileus::replication {
namespace {

using storage::Tablet;

struct Fixture {
  ManualClock clock{1000};
  Tablet primary;
  Tablet secondary;

  Fixture()
      : primary(
            [] {
              Tablet::Options options;
              options.is_primary = true;
              return options;
            }(),
            &clock),
        secondary(Tablet::Options{}, &clock) {}

  void PutMany(int n) {
    for (int i = 0; i < n; ++i) {
      clock.AdvanceMicros(3);
      (void)primary.HandlePut("k" + std::to_string(i),
                              "v" + std::to_string(i));
    }
  }
};

TEST(ReplicationAgentTest, NextRequestAsksAboveHighTimestamp) {
  Fixture fx;
  ReplicationAgent::Options options;
  options.table = "t";
  options.max_versions_per_pull = 7;
  ReplicationAgent agent(&fx.secondary, options);

  proto::SyncRequest request = agent.NextRequest();
  EXPECT_EQ(request.table, "t");
  EXPECT_EQ(request.after, Timestamp::Zero());
  EXPECT_EQ(request.max_versions, 7u);
}

TEST(ReplicationAgentTest, OnReplyAppliesAndCounts) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});

  const proto::SyncReply reply =
      fx.primary.HandleSync(agent.NextRequest().after, 0);
  EXPECT_FALSE(agent.OnReply(reply));
  EXPECT_EQ(agent.versions_applied(), 5u);
  EXPECT_EQ(agent.pulls_completed(), 1u);
  EXPECT_TRUE(fx.secondary.HandleGet("k4").found);
}

TEST(ReplicationAgentTest, OnReplySignalsMoreRounds) {
  Fixture fx;
  fx.PutMany(10);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});

  const proto::SyncReply reply =
      fx.primary.HandleSync(agent.NextRequest().after, 3);
  EXPECT_TRUE(reply.has_more);
  EXPECT_TRUE(agent.OnReply(reply));
  EXPECT_EQ(agent.pulls_completed(), 0u);  // Cycle not finished yet.
}

TEST(BlockingPullerTest, LoopsUntilCaughtUp) {
  Fixture fx;
  fx.PutMany(20);
  ReplicationAgent agent(&fx.secondary,
                         {.table = "t", .max_versions_per_pull = 6});
  int round_trips = 0;
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    ++round_trips;
    return fx.primary.HandleSync(request.after, request.max_versions);
  });

  Result<int> pulled = puller.PullOnce();
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(pulled.value(), 20);
  EXPECT_EQ(round_trips, 4);  // ceil(20/6).
  EXPECT_TRUE(fx.secondary.HandleGet("k19").found);
  EXPECT_EQ(agent.pulls_completed(), 1u);
}

TEST(BlockingPullerTest, SecondPullIsIncremental) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    return fx.primary.HandleSync(request.after, request.max_versions);
  });
  ASSERT_EQ(puller.PullOnce().value(), 5);
  fx.PutMany(3);  // Keys k0..k2 overwritten with new timestamps.
  ASSERT_EQ(puller.PullOnce().value(), 3);
  EXPECT_EQ(agent.versions_applied(), 8u);
}

TEST(BlockingPullerTest, PropagatesSourceErrors) {
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  BlockingPuller puller(&agent, [&](const proto::SyncRequest&) {
    return Result<proto::SyncReply>(StatusCode::kUnavailable, "down");
  });
  EXPECT_EQ(puller.PullOnce().status().code(), StatusCode::kUnavailable);
}

TEST(BlockingPullerTest, DeliversInTimestampOrderPrefix) {
  // After any pull, the secondary must hold a *prefix* of the primary's
  // update sequence (prefix consistency, Section 4.2): if it has version X
  // it has every earlier version too.
  Fixture fx;
  fx.PutMany(50);
  ReplicationAgent agent(&fx.secondary,
                         {.table = "t", .max_versions_per_pull = 7});
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    return fx.primary.HandleSync(request.after, request.max_versions);
  });
  ASSERT_TRUE(puller.PullOnce().ok());
  const Timestamp high = fx.secondary.high_timestamp();
  for (int i = 0; i < 50; ++i) {
    const auto reply = fx.secondary.HandleGet("k" + std::to_string(i));
    ASSERT_TRUE(reply.found) << i;
    EXPECT_LE(reply.value_timestamp, high);
  }
}

TEST(ThreadedPullerTest, PullNowSyncsPromptly) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  std::atomic<int> pulls{0};
  ThreadedPuller puller(
      &agent,
      [&](const proto::SyncRequest& request) {
        ++pulls;
        return fx.primary.HandleSync(request.after, request.max_versions);
      },
      SecondsToMicroseconds(3600));  // Period long enough to never fire.
  puller.PullNow();
  for (int i = 0; i < 200 && pulls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  puller.Stop();
  EXPECT_GE(pulls.load(), 1);
  EXPECT_TRUE(fx.secondary.HandleGet("k4").found);
}

TEST(ThreadedPullerTest, PeriodicPullsHappen) {
  Fixture fx;
  fx.PutMany(2);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  std::atomic<int> pulls{0};
  {
    ThreadedPuller puller(
        &agent,
        [&](const proto::SyncRequest& request) {
          ++pulls;
          return fx.primary.HandleSync(request.after, request.max_versions);
        },
        MillisecondsToMicroseconds(5));
    for (int i = 0; i < 200 && pulls.load() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // Destructor stops the thread.
  EXPECT_GE(pulls.load(), 3);
}

TEST(ThreadedPullerTest, StopIsIdempotent) {
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  ThreadedPuller puller(
      &agent,
      [&](const proto::SyncRequest& request) {
        return fx.primary.HandleSync(request.after, request.max_versions);
      },
      SecondsToMicroseconds(1));
  puller.Stop();
  puller.Stop();
}

// Readers Get through the node while a puller applies batches through it.
// No reply may carry a version above the high timestamp it reports, which
// a batch applied outside the node's request lock allows.
TEST(ThreadedPullerTest, NodeAppliesPullsUnderItsRequestLock) {
  storage::StorageNode primary("primary", "local", RealClock::Instance());
  storage::StorageNode secondary("secondary", "local", RealClock::Instance());
  Tablet::Options primary_options;
  primary_options.is_primary = true;
  ASSERT_TRUE(primary.AddTablet("t", primary_options).ok());
  ASSERT_TRUE(secondary.AddTablet("t", Tablet::Options{}).ok());

  ReplicationAgent agent(&secondary,
                         {.table = "t", .max_versions_per_pull = 4});
  ThreadedPuller puller(
      &agent,
      [&primary](const proto::SyncRequest& request) {
        proto::Message reply = primary.Handle(request);
        return Result<proto::SyncReply>(
            std::get<proto::SyncReply>(std::move(reply)));
      },
      /*period_us=*/50);

  constexpr int kKeys = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<int> found{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int i = r; !stop.load(); ++i) {
        proto::GetRequest get;
        get.table = "t";
        get.key = "k" + std::to_string(i % kKeys);
        proto::Message reply = secondary.Handle(get);
        const auto& got = std::get<proto::GetReply>(reply);
        if (got.found) {
          ++found;
          if (got.value_timestamp > got.high_timestamp) {
            ++violations;
          }
        }
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    proto::PutRequest put;
    put.table = "t";
    put.key = "k" + std::to_string(i % kKeys);
    put.value = "v" + std::to_string(i);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(primary.Handle(put)));
    if (i % 16 == 0) {
      puller.PullNow();
    }
  }
  const Timestamp written = primary.TableHighTimestamp("t");
  for (int i = 0; i < 2000 && secondary.TableHighTimestamp("t") < written;
       ++i) {
    puller.PullNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  for (std::thread& reader : readers) {
    reader.join();
  }
  puller.Stop();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(found.load(), 0);
  EXPECT_GE(secondary.TableHighTimestamp("t"), written);
  EXPECT_EQ(agent.target(), nullptr);
}

}  // namespace
}  // namespace pileus::replication
