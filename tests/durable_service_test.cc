// Tests for DurableStorageService: group-commit acks over journaled storage
// and a full restart cycle through the service interface. Request dispatch
// itself is covered for both backends by dispatch_test.cc.

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/persist/durable_service.h"
#include "src/persist/wal.h"
#include "src/storage/storage_node.h"

namespace pileus::persist {
namespace {

// The committer publishes its acked()/syncs() counters after invoking the
// acks that unblock Handle/SyncNow, so a reader racing the committer thread
// can briefly see a stale count. Poll up to a deadline before comparing.
uint64_t AwaitCounter(const std::function<uint64_t()>& value,
                      uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (value() < at_least && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return value();
}

proto::PutRequest MakePut(const std::string& key, const std::string& value) {
  proto::PutRequest put;
  put.table = "t";
  put.key = key;
  put.value = value;
  return put;
}

// An in-memory primary tablet whose sync barrier blocks until Open(), so a
// test can hold a group-commit fsync in flight for as long as it likes.
class GatedBackend : public storage::TabletBackend {
 public:
  explicit GatedBackend(Clock* clock)
      : tablet_(PrimaryOptions(), clock) {}

  storage::Tablet& tablet() override { return tablet_; }
  Result<proto::PutReply> HandlePut(std::string_view key,
                                    std::string_view value) override {
    return tablet_.HandlePut(key, value);
  }
  Result<proto::PutReply> HandleDelete(std::string_view key) override {
    return tablet_.HandleDelete(key);
  }
  Result<proto::CommitReply> HandleCommit(
      const proto::CommitRequest& request) override {
    return tablet_.HandleCommit(request);
  }
  Status ApplySync(const proto::SyncReply& reply) override {
    tablet_.ApplySync(reply);
    return Status::Ok();
  }
  Result<std::unique_ptr<storage::TabletBackend>> Split(
      std::string_view) override {
    return Status(StatusCode::kInvalidArgument, "gated tablets do not split");
  }
  Result<std::vector<std::unique_ptr<storage::TabletBackend>>>
  OpenSplitChildren() override {
    return std::vector<std::unique_ptr<storage::TabletBackend>>{};
  }
  Status Checkpoint() override { return Status::Ok(); }

  SyncBarrier CaptureSync() override {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      ++barriers_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
      return Status::Ok();
    };
  }

  // Blocks until `n` barriers have started running.
  void AwaitBarriers(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return barriers_ >= n; });
  }
  // Lets every barrier, running or future, complete.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  int barriers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return barriers_;
  }

 private:
  static storage::Tablet::Options PrimaryOptions() {
    storage::Tablet::Options options;
    options.is_primary = true;
    return options;
  }

  storage::Tablet tablet_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int barriers_ = 0;
  bool open_ = false;
};

class DurableServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/pileus_service_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)::system(cmd.c_str());
  }

  std::unique_ptr<DurableTablet> OpenTablet() {
    DurableTablet::Options options;
    options.directory = dir_;
    options.tablet.is_primary = true;
    auto opened = DurableTablet::Open(options, &clock_);
    EXPECT_TRUE(opened.ok()) << opened.status();
    return std::move(opened).value();
  }

  ManualClock clock_{SecondsToMicroseconds(1000)};
  std::string dir_;
};

TEST_F(DurableServiceTest, CommitDispatchAndRecovery) {
  {
    auto tablet = OpenTablet();
    DurableStorageService service("t", tablet.get());
    proto::CommitRequest commit;
    commit.table = "t";
    for (const char* key : {"x", "y"}) {
      proto::ObjectVersion w;
      w.key = key;
      w.value = "tx";
      commit.writes.push_back(w);
    }
    proto::Message reply = service.Handle(commit);
    const auto* cr = std::get_if<proto::CommitReply>(&reply);
    ASSERT_NE(cr, nullptr);
    EXPECT_TRUE(cr->committed);
  }
  // Restart: transactional writes survived.
  auto tablet = OpenTablet();
  DurableStorageService service("t", tablet.get());
  proto::GetRequest get;
  get.table = "t";
  get.key = "x";
  proto::Message reply = service.Handle(get);
  EXPECT_TRUE(std::get<proto::GetReply>(reply).found);
}

// --- Group-commit durability ---
//
// The contract under test (durable_service.h / group_commit.h): with group
// commit on, a mutation is acked only after a batch fsync covers its WAL
// append. So a crash can lose writes that were appended but never acked —
// and must never lose a write whose client saw a reply.

TEST_F(DurableServiceTest, GroupCommitCrashLosesOnlyUnackedWrites) {
  const std::string wal_path = dir_ + "/wal.log";
  constexpr int kAcked = 24;
  constexpr int kUnacked = 8;
  uint64_t acked_bytes = 0;
  uint64_t final_bytes = 0;
  {
    auto tablet = OpenTablet();
    GroupCommitConfig config;
    config.enabled = true;
    DurableStorageService service("t", tablet.get(), config);

    // Phase 1: writes the clients were told are durable.
    std::atomic<int> acked{0};
    for (int i = 0; i < kAcked; ++i) {
      clock_.AdvanceMicros(1);
      proto::PutRequest put;
      put.table = "t";
      put.key = "a" + std::to_string(i);
      put.value = "av" + std::to_string(i);
      service.HandleAsync(put, [&acked](proto::Message reply) {
        EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply));
        ++acked;
      });
    }
    ASSERT_TRUE(service.SyncNow().ok());
    // SyncNow's own barrier ack is queued after the puts, so by the time it
    // returns every earlier ack has already run.
    ASSERT_EQ(acked.load(), kAcked);
    acked_bytes = tablet->wal().bytes_written();

    // Phase 2: appended to the WAL (reached the kernel) through the tablet
    // but never registered for an ack, so no sync covers them — the clients
    // never hear back before the "crash".
    GroupCommitter* committer = service.group_committer();
    const uint64_t syncs_after_acked = AwaitCounter(
        [committer] { return committer->syncs(); }, 1);
    for (int i = 0; i < kUnacked; ++i) {
      clock_.AdvanceMicros(1);
      ASSERT_TRUE(tablet
                      ->HandlePut("u" + std::to_string(i),
                                  "uv" + std::to_string(i))
                      .ok());
    }
    final_bytes = tablet->wal().bytes_written();
    ASSERT_GT(final_bytes, acked_bytes);
    // 24 put acks + SyncNow's barrier ack; nothing from phase 2, and no
    // sync since the frontier was pinned.
    EXPECT_EQ(AwaitCounter([committer] { return committer->acked(); },
                           kAcked + 1),
              static_cast<uint64_t>(kAcked) + 1);
    EXPECT_EQ(committer->syncs(), syncs_after_acked);
    // Reads see pending writes immediately: the in-memory tablet is ahead
    // of the durability frontier by design.
    proto::GetRequest get;
    get.table = "t";
    get.key = "u0";
    proto::Message reply = service.Handle(get);
    EXPECT_TRUE(std::get<proto::GetReply>(reply).found);
  }

  // Simulate crashes at every interesting point at or after the last
  // covering sync: the full tail survives, the tail is partially lost, the
  // tail is torn mid-record, the tail is gone entirely. Acked writes must
  // recover at every cut; unacked writes may or may not, but a recovered
  // one must be intact and recovery must be a prefix of the issue order.
  const uint64_t tail = final_bytes - acked_bytes;
  std::vector<uint64_t> cuts = {final_bytes, acked_bytes + 2 * tail / 3,
                                acked_bytes + tail / 3, acked_bytes + 1,
                                acked_bytes};
  uint64_t previous_cut = final_bytes + 1;
  for (const uint64_t cut : cuts) {
    if (cut >= previous_cut) {
      continue;  // Truncation points must strictly shrink.
    }
    previous_cut = cut;
    ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(cut)), 0);

    // Journal cross-check before replay: the surviving records are exactly
    // a prefix of the issue order — all acked writes, then zero or more
    // unacked ones, never a gap and never garbage.
    auto journal = WriteAheadLog::ReadVersions(wal_path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_GE(journal.value().size(), static_cast<size_t>(kAcked));
    ASSERT_LE(journal.value().size(), static_cast<size_t>(kAcked + kUnacked));
    for (size_t i = 0; i < journal.value().size(); ++i) {
      const int n = static_cast<int>(i);
      const std::string expected_key =
          n < kAcked ? "a" + std::to_string(n)
                     : "u" + std::to_string(n - kAcked);
      EXPECT_EQ(journal.value()[i].key, expected_key) << "cut=" << cut;
    }

    auto reopened = OpenTablet();
    for (int i = 0; i < kAcked; ++i) {
      const proto::GetReply got = reopened->HandleGet("a" + std::to_string(i));
      EXPECT_TRUE(got.found) << "acked write a" << i << " lost at cut=" << cut;
      EXPECT_EQ(got.value, "av" + std::to_string(i));
    }
    for (int i = 0; i < kUnacked; ++i) {
      const proto::GetReply got = reopened->HandleGet("u" + std::to_string(i));
      if (got.found) {
        EXPECT_EQ(got.value, "uv" + std::to_string(i)) << "cut=" << cut;
      }
    }
    EXPECT_EQ(reopened->recovery_info().wal_versions, journal.value().size());
  }
  // The last cut removed the whole unacked tail: exactly the acked writes.
  EXPECT_EQ(previous_cut, acked_bytes);
}

TEST_F(DurableServiceTest, GroupCommitAmortizesSyncsAcrossAckedWrites) {
  // A gated backend beside the durable tablet holds the first sync in
  // flight while 48 writers append and queue their acks. The next sync must
  // cover them all: two syncs for 49 acked writes.
  auto tablet = OpenTablet();
  storage::StorageNode node("n", "local", &clock_);
  ASSERT_TRUE(node.AttachTablet("t", tablet.get()).ok());
  GatedBackend gate(&clock_);
  ASSERT_TRUE(node.AttachTablet("gate", &gate).ok());
  GroupCommitConfig config;
  config.enabled = true;
  DurableStorageService service(&node, config);

  std::atomic<int> acked{0};
  const auto count_put = [&acked](proto::Message reply) {
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply));
    ++acked;
  };
  service.HandleAsync(MakePut("k0", "v0"), count_put);
  gate.AwaitBarriers(1);

  constexpr int kWrites = 48;
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 1 + w; i <= kWrites; i += 4) {
        service.HandleAsync(MakePut("k" + std::to_string(i),
                                    "v" + std::to_string(i)),
                            count_put);
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(acked.load(), 0);  // Nothing is acked while its sync is held.
  gate.Open();
  ASSERT_EQ(AwaitCounter([&acked] { return acked.load(); }, kWrites + 1),
            static_cast<uint64_t>(kWrites) + 1);

  GroupCommitter* committer = service.group_committer();
  ASSERT_NE(committer, nullptr);
  EXPECT_EQ(AwaitCounter([committer] { return committer->acked(); },
                         kWrites + 1),
            static_cast<uint64_t>(kWrites) + 1);
  // The held sync, then one sync for all 48 queued writes.
  EXPECT_EQ(committer->syncs(), 2u);
  EXPECT_EQ(gate.barriers(), 2);

  // WAL replay cross-check: every acked write journaled exactly once.
  auto journal = WriteAheadLog::ReadVersions(dir_ + "/wal.log");
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_EQ(journal.value().size(), static_cast<size_t>(kWrites) + 1);
  std::set<std::string> keys;
  for (const proto::ObjectVersion& version : journal.value()) {
    EXPECT_EQ(version.value, "v" + version.key.substr(1));
    keys.insert(version.key);
  }
  EXPECT_EQ(keys.size(), static_cast<size_t>(kWrites) + 1);
}

TEST_F(DurableServiceTest, SyncHandleBlocksUntilDurableUnderGroupCommit) {
  // The synchronous Handle path wraps HandleAsync: when it returns a
  // successful mutation reply, the covering sync has already happened, so a
  // crash immediately after can no longer lose the write.
  const std::string wal_path = dir_ + "/wal.log";
  {
    auto tablet = OpenTablet();
    GroupCommitConfig config;
    config.enabled = true;
    DurableStorageService service("t", tablet.get(), config);
    for (int i = 0; i < 6; ++i) {
      clock_.AdvanceMicros(1);
      proto::PutRequest put;
      put.table = "t";
      put.key = "k" + std::to_string(i);
      put.value = "v";
      proto::Message reply = service.Handle(put);
      ASSERT_TRUE(std::holds_alternative<proto::PutReply>(reply));
    }
    GroupCommitter* committer = service.group_committer();
    EXPECT_GE(AwaitCounter([committer] { return committer->acked(); }, 6), 6u);
  }
  // No truncation needed: everything acked was synced, so the journal on
  // disk holds all six writes even though the WAL fd is long closed.
  auto reopened = OpenTablet();
  EXPECT_EQ(reopened->recovery_info().wal_versions, 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(reopened->HandleGet("k" + std::to_string(i)).found);
  }
}

// --- The fsync runs outside the node lock ---
//
// StorageNode::SyncBackends captures each backend's barrier under the node
// lock and runs it after releasing the lock. So requests are served while a
// group-commit fsync is in flight, and a barrier stays valid whatever the
// node does to its tablet meanwhile.

TEST_F(DurableServiceTest, GroupCommitSyncInFlightDoesNotBlockRequests) {
  storage::StorageNode node("n", "local", &clock_);
  GatedBackend gate(&clock_);
  ASSERT_TRUE(node.AttachTablet("t", &gate).ok());
  GroupCommitConfig config;
  config.enabled = true;
  DurableStorageService service(&node, config);

  // The first Put's sync blocks inside its barrier.
  std::atomic<bool> first_acked{false};
  service.HandleAsync(MakePut("a", "1"), [&first_acked](proto::Message reply) {
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply));
    first_acked = true;
  });
  gate.AwaitBarriers(1);

  // With that fsync in flight, a Get and a Put on the same node complete.
  // Had the sync kept the node lock, all three would wait for the gate. A
  // Put through the service also applies at once, but its ack must wait for
  // a sync that starts after it was registered.
  std::atomic<bool> second_acked{false};
  auto requests = std::async(std::launch::async, [&] {
    proto::GetRequest get;
    get.table = "t";
    get.key = "a";
    const proto::Message got = node.Handle(get);
    const proto::Message put = node.Handle(MakePut("b", "2"));
    service.HandleAsync(MakePut("c", "3"), [&second_acked](proto::Message) {
      second_acked = true;
    });
    return std::holds_alternative<proto::GetReply>(got) &&
           std::get<proto::GetReply>(got).found &&
           std::holds_alternative<proto::PutReply>(put);
  });
  const bool served =
      requests.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  const bool acked_early = first_acked.load() || second_acked.load();
  gate.Open();  // Release the barrier whatever happened, so nothing hangs.
  ASSERT_TRUE(served) << "a request waited for the in-flight fsync";
  EXPECT_TRUE(requests.get());
  EXPECT_FALSE(acked_early);

  // SyncNow's waiter queues behind both acks, so both have run when it
  // returns.
  ASSERT_TRUE(service.SyncNow().ok());
  EXPECT_TRUE(first_acked.load());
  EXPECT_TRUE(second_acked.load());
}

TEST_F(DurableServiceTest, GroupCommitBarrierOutlivesCheckpointSplitAndRemove) {
  // A real barrier (the WAL's fdatasync) captured before the node
  // checkpoints, splits and drops tablets must still sync its files, not a
  // closed or reused fd, and report OK.
  auto tablet = OpenTablet();
  storage::StorageNode node("n", "local", &clock_);
  ASSERT_TRUE(node.AttachTablet("t", tablet.get()).ok());
  for (const char* key : {"b", "h", "p", "w"}) {
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(
        node.Handle(MakePut(key, "v"))));
  }
  ASSERT_TRUE(node.SplitTablet("t", "m").ok());  // The node owns [m, end).
  clock_.AdvanceMicros(1);
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(
      node.Handle(MakePut("x", "v"))));

  const storage::TabletBackend::SyncBarrier in_flight =
      node.CaptureBackendSync();
  ASSERT_TRUE(node.SplitTablet("t", "f").ok());  // A new child WAL.
  ASSERT_TRUE(node.CheckpointBackends().ok());   // Truncates every WAL.
  // Destroys the first child and its WAL last, so no file opened since
  // could have taken over its fd number: a barrier holding a bare fd would
  // now fail with EBADF.
  const KeyRange upper = node.FindTablet("t", "x")->range();
  ASSERT_TRUE(node.RemoveTablet("t", upper).ok());
  EXPECT_TRUE(in_flight().ok());
  EXPECT_TRUE(node.SyncBackends().ok());
  proto::GetRequest get;
  get.table = "t";
  get.key = "b";
  EXPECT_TRUE(std::get<proto::GetReply>(node.Handle(get)).found);
}

TEST_F(DurableServiceTest, GroupCommitSyncsRaceCheckpointSplitAndRemove) {
  // The same, racing: the committer syncs continuously while the node
  // writes, checkpoints, splits and drops tablets. Every sync must succeed,
  // and the sanitizer builds must report nothing.
  auto tablet = OpenTablet();
  storage::StorageNode node("n", "local", &clock_);
  ASSERT_TRUE(node.AttachTablet("t", tablet.get()).ok());
  GroupCommitConfig config;
  config.enabled = true;
  DurableStorageService service(&node, config);

  std::atomic<bool> done{false};
  std::atomic<int> failed_syncs{0};
  std::thread syncer([&] {
    while (!done.load()) {
      if (!service.SyncNow().ok()) {
        ++failed_syncs;
      }
    }
  });
  // Each round splits the root's upper end off, writes on both sides,
  // checkpoints and drops the split-off tablet again.
  for (int round = 0; round < 8; ++round) {
    const std::string split_key = "s" + std::to_string(9 - round);
    for (int i = 0; i < 4; ++i) {
      clock_.AdvanceMicros(1);
      EXPECT_TRUE(std::holds_alternative<proto::PutReply>(service.Handle(
          MakePut("a" + std::to_string(round * 4 + i), "v"))));
    }
    ASSERT_TRUE(node.SplitTablet("t", split_key).ok());
    clock_.AdvanceMicros(1);
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(
        service.Handle(MakePut(split_key + "x", "v"))));
    ASSERT_TRUE(node.CheckpointBackends().ok());
    const KeyRange upper = node.FindTablet("t", split_key)->range();
    ASSERT_TRUE(node.RemoveTablet("t", upper).ok());
  }
  done = true;
  syncer.join();
  EXPECT_EQ(failed_syncs.load(), 0);
  EXPECT_TRUE(service.SyncNow().ok());
}

}  // namespace
}  // namespace pileus::persist
