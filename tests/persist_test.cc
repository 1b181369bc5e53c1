// Tests for durability: CRC32, the write-ahead log (including crash-shaped
// torn tails and corruption), checkpoints, and full tablet recovery.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/persist/durable_tablet.h"
#include "src/persist/group_commit.h"
#include "src/persist/wal.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/util/crc32.h"

namespace pileus::persist {
namespace {

// Unique temp directory per test, removed on teardown.
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/pileus_persist_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    // Best-effort cleanup of the flat directory.
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)::system(cmd.c_str());
  }

  std::string WalPath() const { return dir_ + "/wal.log"; }

  // Truncates a file to `bytes` (simulating a crash mid-write).
  void TruncateFile(const std::string& path, off_t bytes) {
    ASSERT_EQ(::truncate(path.c_str(), bytes), 0);
  }

  off_t FileSize(const std::string& path) {
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return st.st_size;
  }

  // Flips one byte at `offset`.
  void CorruptByte(const std::string& path, off_t offset) {
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    char b;
    ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
    b = static_cast<char>(b ^ 0xff);
    ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
    ::close(fd);
  }

  proto::ObjectVersion V(const std::string& key, const std::string& value,
                         int64_t ts) {
    proto::ObjectVersion version;
    version.key = key;
    version.value = value;
    version.timestamp = Timestamp{ts, 0};
    return version;
  }

  std::string dir_;
};

// --- CRC32 ---

TEST(Crc32Test, KnownVectors) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  const std::string data = "the quick brown fox";
  const uint32_t original = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(Crc32(mutated), original) << "flip at " << i;
  }
}

TEST(Crc32Test, SeedContinuation) {
  const uint32_t whole = Crc32("hello world");
  const uint32_t split = Crc32(" world", Crc32("hello"));
  EXPECT_EQ(split, whole);
}

TEST(Crc32Test, MatchesBytewiseReference) {
  // The textbook one-byte-at-a-time loop over the 0xedb88320 table: the
  // slicing-by-8 Crc32 must agree with it bit for bit, for every length,
  // alignment and seed, since its value is on the wire and on disk.
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  const auto reference = [&table](std::string_view data, uint32_t seed) {
    uint32_t crc = seed ^ 0xffffffffu;
    for (const char ch : data) {
      crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^ (crc >> 8);
    }
    return crc ^ 0xffffffffu;
  };
  std::mt19937_64 rng(2026);
  std::string buffer(4096 + 16, '\0');
  for (char& ch : buffer) {
    ch = static_cast<char>(rng());
  }
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t offset = rng() % 16;
    const size_t length = trial < 64 ? static_cast<size_t>(trial)
                                     : static_cast<size_t>(rng() % 4097);
    const uint32_t seed = trial % 2 == 0 ? 0 : static_cast<uint32_t>(rng());
    const std::string_view data(buffer.data() + offset, length);
    ASSERT_EQ(Crc32(data, seed), reference(data, seed))
        << "offset " << offset << " length " << length << " seed " << seed;
  }
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

// --- WriteAheadLog ---

TEST_F(PersistTest, ReplayOfMissingFileIsEmpty) {
  auto stats = WriteAheadLog::Replay(WalPath(), nullptr, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->versions, 0u);
  EXPECT_FALSE(stats->tail_torn);
}

TEST_F(PersistTest, AppendReplayRoundTrip) {
  {
    auto wal = WriteAheadLog::Open(WalPath());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(wal->AppendVersion(V("key" + std::to_string(i),
                                       "value" + std::to_string(i),
                                       1000 + i))
                      .ok());
    }
    ASSERT_TRUE(wal->AppendHeartbeat(Timestamp{5000, 0}).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::vector<proto::ObjectVersion> versions;
  std::vector<Timestamp> heartbeats;
  auto stats = WriteAheadLog::Replay(
      WalPath(),
      [&](const proto::ObjectVersion& v) { versions.push_back(v); },
      [&](const Timestamp& hb) { heartbeats.push_back(hb); });
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->versions, 100u);
  EXPECT_EQ(stats->heartbeats, 1u);
  EXPECT_FALSE(stats->tail_torn);
  ASSERT_EQ(versions.size(), 100u);
  EXPECT_EQ(versions[42].key, "key42");
  EXPECT_EQ(versions[42].value, "value42");
  EXPECT_EQ(versions[42].timestamp, (Timestamp{1042, 0}));
  ASSERT_EQ(heartbeats.size(), 1u);
  EXPECT_EQ(heartbeats[0], (Timestamp{5000, 0}));
}

TEST_F(PersistTest, ConfigRecordsReplayInLogOrder) {
  reconfig::ConfigEpoch first;
  first.epoch = 1;
  first.primary = "England";
  first.members = {"England", "US", "India"};
  first.sync_members = {"US"};
  reconfig::ConfigEpoch second = first;
  second.epoch = 2;
  second.primary = "US";
  second.sync_members = {"India"};
  {
    auto wal = WriteAheadLog::Open(WalPath());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->AppendConfig(first).ok());
    ASSERT_TRUE(wal->AppendVersion(V("k", "v", 100)).ok());
    ASSERT_TRUE(wal->AppendConfig(second).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::vector<reconfig::ConfigEpoch> configs;
  uint64_t versions = 0;
  auto stats = WriteAheadLog::Replay(
      WalPath(), [&](const proto::ObjectVersion&) { ++versions; }, nullptr,
      [&](const reconfig::ConfigEpoch& config) { configs.push_back(config); });
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->configs, 2u);
  EXPECT_EQ(versions, 1u);
  ASSERT_EQ(configs.size(), 2u);
  // A restarted node adopts the *last* journaled config; log order matters.
  EXPECT_EQ(configs[0], first);
  EXPECT_EQ(configs[1], second);
}

TEST_F(PersistTest, ConfigRecordsInvisibleToVersionReaders) {
  {
    auto wal = WriteAheadLog::Open(WalPath());
    ASSERT_TRUE(wal.ok());
    reconfig::ConfigEpoch config;
    config.epoch = 5;
    config.primary = "US";
    config.members = {"US"};
    ASSERT_TRUE(wal->AppendConfig(config).ok());
    ASSERT_TRUE(wal->AppendVersion(V("k", "v", 100)).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto versions = WriteAheadLog::ReadVersions(WalPath());
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ((*versions)[0].key, "k");
}

TEST_F(PersistTest, ReopenAppends) {
  {
    auto wal = WriteAheadLog::Open(WalPath());
    ASSERT_TRUE(wal->AppendVersion(V("a", "1", 1)).ok());
  }
  {
    auto wal = WriteAheadLog::Open(WalPath());
    ASSERT_TRUE(wal->AppendVersion(V("b", "2", 2)).ok());
  }
  auto stats = WriteAheadLog::Replay(WalPath(), nullptr, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->versions, 2u);
}

TEST_F(PersistTest, TornTailIsDiscardedNotFatal) {
  {
    auto wal = WriteAheadLog::Open(WalPath());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(wal->AppendVersion(V("k" + std::to_string(i), "v", i)).ok());
    }
  }
  // Chop a few bytes off the end: a crash mid-append.
  TruncateFile(WalPath(), FileSize(WalPath()) - 3);

  std::vector<proto::ObjectVersion> versions;
  auto stats = WriteAheadLog::Replay(
      WalPath(),
      [&](const proto::ObjectVersion& v) { versions.push_back(v); }, nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->tail_torn);
  EXPECT_EQ(stats->versions, 9u);  // The last record was torn.
  EXPECT_EQ(versions.back().key, "k8");
}

TEST_F(PersistTest, EverySuffixTruncationRecoversAPrefix) {
  {
    auto wal = WriteAheadLog::Open(WalPath());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal->AppendVersion(V("k" + std::to_string(i), "v", i)).ok());
    }
  }
  const off_t full = FileSize(WalPath());
  uint64_t last_count = 5;
  for (off_t cut = full - 1; cut >= 0; cut -= 7) {
    TruncateFile(WalPath(), cut);
    auto stats = WriteAheadLog::Replay(WalPath(), nullptr, nullptr);
    ASSERT_TRUE(stats.ok()) << "cut at " << cut << ": " << stats.status();
    EXPECT_LE(stats->versions, last_count);
    last_count = stats->versions;
  }
}

TEST_F(PersistTest, MidLogCorruptionIsReported) {
  {
    auto wal = WriteAheadLog::Open(WalPath());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          wal->AppendVersion(V("k" + std::to_string(i), "vvvv", i)).ok());
    }
  }
  // Flip a payload byte in the middle of the file.
  CorruptByte(WalPath(), FileSize(WalPath()) / 2);
  auto stats = WriteAheadLog::Replay(WalPath(), nullptr, nullptr);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistTest, ResetEmptiesTheLog) {
  auto wal = WriteAheadLog::Open(WalPath());
  ASSERT_TRUE(wal->AppendVersion(V("a", "1", 1)).ok());
  ASSERT_GT(wal->bytes_written(), 0u);
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->bytes_written(), 0u);
  auto stats = WriteAheadLog::Replay(WalPath(), nullptr, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->versions, 0u);
}

// --- DurableTablet ---

TEST_F(PersistTest, DurableTabletSurvivesReopen) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;

  Timestamp last_put;
  {
    auto tablet = DurableTablet::Open(options, &clock);
    ASSERT_TRUE(tablet.ok()) << tablet.status();
    for (int i = 0; i < 50; ++i) {
      clock.AdvanceMicros(5);
      auto reply = (*tablet)->HandlePut("k" + std::to_string(i),
                                        "v" + std::to_string(i));
      ASSERT_TRUE(reply.ok());
      last_put = reply->timestamp;
    }
  }  // "Crash": the tablet object is destroyed.

  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_info().wal_versions, 50u);
  for (int i = 0; i < 50; ++i) {
    const auto reply = (*reopened)->HandleGet("k" + std::to_string(i));
    ASSERT_TRUE(reply.found) << i;
    EXPECT_EQ(reply.value, "v" + std::to_string(i));
  }
  EXPECT_GE((*reopened)->tablet().high_timestamp(), last_put);

  // The recovered primary never re-issues an old update timestamp, even if
  // the clock regressed across the restart.
  clock.SetMicros(500);
  auto fresh = (*reopened)->HandlePut("k0", "post-recovery");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->timestamp, last_put);
}

TEST_F(PersistTest, CheckpointPlusWalRecovery) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;

  {
    auto tablet = DurableTablet::Open(options, &clock);
    ASSERT_TRUE(tablet.ok());
    for (int i = 0; i < 20; ++i) {
      clock.AdvanceMicros(5);
      ASSERT_TRUE((*tablet)->HandlePut("pre" + std::to_string(i), "x").ok());
    }
    ASSERT_TRUE((*tablet)->Checkpoint().ok());
    EXPECT_EQ((*tablet)->wal().bytes_written(), 0u);
    for (int i = 0; i < 10; ++i) {
      clock.AdvanceMicros(5);
      ASSERT_TRUE((*tablet)->HandlePut("post" + std::to_string(i), "y").ok());
    }
  }

  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_info().checkpoint_versions, 20u);
  EXPECT_EQ((*reopened)->recovery_info().wal_versions, 10u);
  EXPECT_TRUE((*reopened)->HandleGet("pre5").found);
  EXPECT_TRUE((*reopened)->HandleGet("post5").found);
}

TEST_F(PersistTest, TornWalTailAfterCrashStillRecovers) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  {
    auto tablet = DurableTablet::Open(options, &clock);
    for (int i = 0; i < 10; ++i) {
      clock.AdvanceMicros(5);
      ASSERT_TRUE((*tablet)->HandlePut("k" + std::to_string(i), "v").ok());
    }
  }
  TruncateFile(dir_ + "/wal.log", FileSize(dir_ + "/wal.log") - 2);

  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->recovery_info().wal_tail_torn);
  EXPECT_EQ((*reopened)->recovery_info().wal_versions, 9u);
  EXPECT_TRUE((*reopened)->HandleGet("k8").found);
  EXPECT_FALSE((*reopened)->HandleGet("k9").found);  // The torn write.
}

TEST_F(PersistTest, ReplicatedStateIsJournaled) {
  ManualClock clock(1000);
  // A durable *secondary* applying a sync batch.
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = false;

  storage::Tablet::Options primary_options;
  primary_options.is_primary = true;
  storage::Tablet primary(primary_options, &clock);
  for (int i = 0; i < 15; ++i) {
    clock.AdvanceMicros(5);
    (void)primary.HandlePut("k" + std::to_string(i), "v");
  }

  Timestamp high_after_sync;
  {
    auto secondary = DurableTablet::Open(options, &clock);
    ASSERT_TRUE(secondary.ok());
    const proto::SyncReply reply =
        primary.HandleSync(Timestamp::Zero(), 0);
    ASSERT_TRUE((*secondary)->ApplySync(reply).ok());
    high_after_sync = (*secondary)->tablet().high_timestamp();
  }

  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->HandleGet("k14").found);
  // The heartbeat survived too: staleness knowledge is durable.
  EXPECT_EQ((*reopened)->tablet().high_timestamp(), high_after_sync);
}

TEST_F(PersistTest, AutoCheckpointTriggersOnThreshold) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  options.checkpoint_threshold_bytes = 2048;

  auto tablet = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(tablet.ok());
  const std::string value(128, 'v');
  for (int i = 0; i < 100; ++i) {
    clock.AdvanceMicros(5);
    ASSERT_TRUE((*tablet)->HandlePut("k" + std::to_string(i), value).ok());
  }
  // The WAL was truncated at least once.
  EXPECT_LT((*tablet)->wal().bytes_written(), 100 * (128 + 32));
  EXPECT_EQ(FileSize(dir_ + "/checkpoint.db") > 0, true);
}

TEST_F(PersistTest, CommitIsJournaled) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  {
    auto tablet = DurableTablet::Open(options, &clock);
    proto::CommitRequest request;
    request.snapshot = Timestamp::Zero();
    for (const char* key : {"a", "b"}) {
      proto::ObjectVersion w;
      w.key = key;
      w.value = "tx";
      request.writes.push_back(w);
    }
    auto reply = (*tablet)->HandleCommit(request);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->committed);
  }
  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->HandleGet("a").found);
  EXPECT_TRUE((*reopened)->HandleGet("b").found);
  EXPECT_EQ((*reopened)->HandleGet("a").value_timestamp,
            (*reopened)->HandleGet("b").value_timestamp);
}

TEST_F(PersistTest, DeletesSurviveRecovery) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  {
    auto tablet = DurableTablet::Open(options, &clock);
    ASSERT_TRUE((*tablet)->HandlePut("keep", "v").ok());
    clock.AdvanceMicros(10);
    ASSERT_TRUE((*tablet)->HandlePut("drop", "v").ok());
    clock.AdvanceMicros(10);
    ASSERT_TRUE((*tablet)->HandleDelete("drop").ok());
  }
  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->HandleGet("keep").found);
  EXPECT_FALSE((*reopened)->HandleGet("drop").found);
}

TEST_F(PersistTest, DeletesSurviveCheckpointedRecovery) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  {
    auto tablet = DurableTablet::Open(options, &clock);
    ASSERT_TRUE((*tablet)->HandlePut("drop", "v").ok());
    clock.AdvanceMicros(10);
    ASSERT_TRUE((*tablet)->HandleDelete("drop").ok());
    ASSERT_TRUE((*tablet)->Checkpoint().ok());  // Tombstone in the snapshot.
  }
  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->HandleGet("drop").found);
  // A re-put after recovery must get a timestamp above the tombstone's.
  clock.SetMicros(500);  // Clock regression across restart.
  auto reput = (*reopened)->HandlePut("drop", "back");
  ASSERT_TRUE(reput.ok());
  EXPECT_TRUE((*reopened)->HandleGet("drop").found);
}

TEST_F(PersistTest, SyncEveryAppendMode) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  options.sync_every_append = true;
  auto tablet = DurableTablet::Open(options, &clock);
  ASSERT_TRUE(tablet.ok());
  ASSERT_TRUE((*tablet)->HandlePut("k", "v").ok());
  EXPECT_TRUE((*tablet)->HandleGet("k").found);
}

TEST_F(PersistTest, CorruptCheckpointIsRejected) {
  ManualClock clock(1000);
  DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  {
    auto tablet = DurableTablet::Open(options, &clock);
    for (int i = 0; i < 5; ++i) {
      clock.AdvanceMicros(5);
      ASSERT_TRUE((*tablet)->HandlePut("k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*tablet)->Checkpoint().ok());
  }
  CorruptByte(dir_ + "/checkpoint.db", FileSize(dir_ + "/checkpoint.db") / 2);
  auto reopened = DurableTablet::Open(options, &clock);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

// --- GroupCommitter unit tests ---
//
// The committer's contract (group_commit.h): an ack registered after its
// append runs only once a sync that started after the registration has
// completed, acks that queue during one sync share the next, and a failed
// sync reports failure to every waiting ack instead of acking success for
// data that never reached disk.

// A SyncFn that holds every sync open until Release(), so acks registered
// meanwhile deterministically queue up behind the one in flight.
class SyncGate {
 public:
  Status Sync() {
    std::unique_lock<std::mutex> lock(mu_);
    ++calls_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return Status::Ok();
  }

  // Blocks until `n` syncs have started.
  void AwaitCalls(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return calls_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int calls_ = 0;
  bool released_ = false;
};

TEST(GroupCommitTest, ManyAcksShareFewSyncs) {
  // The first ack starts a sync at once; the gate holds it in flight while
  // 32 writers register. They must all ride the next sync together, and
  // none may be released by the sync that was already running.
  SyncGate gate;
  GroupCommitter committer([&gate] { return gate.Sync(); });
  ASSERT_TRUE(committer.Start().ok());

  std::atomic<int> first_acked{0};
  committer.AckAfterSync([&first_acked](const Status& status) {
    EXPECT_TRUE(status.ok());
    ++first_acked;
  });
  gate.AwaitCalls(1);

  constexpr int kWriters = 32;
  std::mutex mu;
  std::vector<int> sync_seen;  // Syncs started when each writer was acked.
  std::atomic<int> acked_failed{0};
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&] {
      committer.AckAfterSync([&](const Status& status) {
        if (!status.ok()) {
          ++acked_failed;
        }
        std::lock_guard<std::mutex> lock(mu);
        sync_seen.push_back(gate.calls());
      });
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(first_acked.load(), 0);  // Its sync is still held.
  gate.Release();
  committer.Stop();  // Drains: every queued ack is released first.

  EXPECT_EQ(first_acked.load(), 1);
  EXPECT_EQ(acked_failed.load(), 0);
  ASSERT_EQ(sync_seen.size(), static_cast<size_t>(kWriters));
  for (const int seen : sync_seen) {
    EXPECT_EQ(seen, 2) << "an ack was released by a sync that began before "
                          "it was registered";
  }
  // The held sync, then one sync for all 32 writers.
  EXPECT_EQ(committer.syncs(), 2u);
  EXPECT_EQ(committer.acked(), static_cast<uint64_t>(kWriters) + 1);
}

TEST(GroupCommitTest, SyncFailureIsReportedToEveryWaitingAck) {
  // If fdatasync fails, acking success would tell clients their writes are
  // durable when they are not. Every ack in the failed batch must see the
  // error.
  GroupCommitter committer(
      [] { return Status(StatusCode::kUnavailable, "disk gone"); });
  ASSERT_TRUE(committer.Start().ok());

  std::mutex mu;
  std::vector<Status> outcomes;
  for (int i = 0; i < 5; ++i) {
    committer.AckAfterSync([&](const Status& status) {
      std::lock_guard<std::mutex> lock(mu);
      outcomes.push_back(status);
    });
  }
  EXPECT_FALSE(committer.SyncNow().ok());
  committer.Stop();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(outcomes.size(), 5u);
  for (const Status& status : outcomes) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
}

TEST(GroupCommitTest, StopReleasesPendingAcksAfterAFinalSync) {
  // Acks registered just before shutdown must not be dropped: Stop() runs
  // one last covering sync and releases them, so a daemon draining its
  // request queue never strands a client reply. The gate keeps seven acks
  // queued behind an in-flight sync while Stop() is called.
  SyncGate gate;
  GroupCommitter committer([&gate] { return gate.Sync(); });
  ASSERT_TRUE(committer.Start().ok());

  std::atomic<int> released{0};
  const auto count = [&released](const Status& status) {
    EXPECT_TRUE(status.ok());
    ++released;
  };
  committer.AckAfterSync(count);
  gate.AwaitCalls(1);
  for (int i = 0; i < 7; ++i) {
    committer.AckAfterSync(count);
  }
  std::thread stopper([&committer] { committer.Stop(); });
  gate.Release();
  stopper.join();
  EXPECT_EQ(released.load(), 8);
  EXPECT_EQ(gate.calls(), 2);
  EXPECT_EQ(committer.acked(), 8u);
}

TEST(GroupCommitTest, AckWithoutRunningCommitterSyncsInline) {
  // Before Start() (or after Stop()) there is no committer thread to defer
  // to, so AckAfterSync degrades to sync-then-ack inline rather than parking
  // the ack forever.
  std::atomic<int> sync_calls{0};
  GroupCommitter committer([&sync_calls] {
    ++sync_calls;
    return Status::Ok();
  });

  bool acked = false;
  committer.AckAfterSync([&acked](const Status& status) {
    EXPECT_TRUE(status.ok());
    acked = true;
  });
  EXPECT_TRUE(acked);
  EXPECT_EQ(sync_calls.load(), 1);
}

TEST(GroupCommitTest, EachSyncRecordsBatchSizeAndSyncTime) {
  // Operators read batch shapes and fsync cost from the default registry
  // (Prometheus, `pileus_cli stats`): one sample of each per sync.
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Default();
  telemetry::HistogramMetric* batch_acks =
      registry.GetHistogram("pileus_persist_group_commit_batch_acks");
  telemetry::HistogramMetric* sync_us =
      registry.GetHistogram("pileus_persist_wal_sync_us");
  const uint64_t batches_before = batch_acks->Merged().count();
  const uint64_t syncs_before = sync_us->Merged().count();

  SyncGate gate;
  GroupCommitter committer([&gate] { return gate.Sync(); });
  ASSERT_TRUE(committer.Start().ok());
  committer.AckAfterSync([](const Status&) {});
  gate.AwaitCalls(1);
  for (int i = 0; i < 5; ++i) {
    committer.AckAfterSync([](const Status&) {});
  }
  gate.Release();
  committer.Stop();

  ASSERT_EQ(committer.syncs(), 2u);
  const Histogram batches = batch_acks->Merged();
  EXPECT_EQ(batches.count(), batches_before + 2);
  EXPECT_GE(batches.max(), 5);  // The five acks queued behind the gate.
  EXPECT_EQ(sync_us->Merged().count(), syncs_before + 2);
  EXPECT_NE(telemetry::ExportPrometheus(registry).find(
                "pileus_persist_wal_sync_us"),
            std::string::npos);
}

}  // namespace
}  // namespace pileus::persist
