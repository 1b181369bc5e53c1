// Tests for splitting a durable pileus_server: the admin split verb
// (TabletMapRequest{split_key}), reopening split children after a restart,
// cross-tablet requests, and the crash ordering of a split (the child's
// checkpoint is durable before the parent's split record).
//
// Each test runs the real daemon as a child process over loopback TCP: a
// crash is a SIGKILL, a clean shutdown a SIGTERM, and a restart a fresh
// process on the same --data_dir.

#include <gtest/gtest.h>

#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/tcp.h"
#include "src/proto/messages.h"

namespace pileus {
namespace {

constexpr const char* kTable = "t";
const std::vector<std::string> kLowKeys = {"a", "c", "f", "k"};
const std::vector<std::string> kHighKeys = {"m", "p", "t", "y"};

// One pileus_server child process serving `kTable` as a durable primary.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& data_dir) {
    int out[2];
    if (::pipe(out) != 0) {
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(PILEUS_SERVER_PATH, PILEUS_SERVER_PATH, "--port", "0",
              "--role", "primary", "--table", kTable, "--data_dir",
              data_dir.c_str(), "--group_commit", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    // The daemon prints "... on 127.0.0.1:<port> ..." once it is listening.
    // The pipe stays open until the process is reaped, so its later output
    // (e.g. at shutdown) never hits a closed pipe.
    output_ = ::fdopen(out[0], "r");
    char line[512];
    while (output_ != nullptr && ::fgets(line, sizeof(line), output_)) {
      const std::string text(line);
      const size_t at = text.find("127.0.0.1:");
      if (at != std::string::npos) {
        port_ = static_cast<uint16_t>(std::stoi(text.substr(at + 10)));
        break;
      }
    }
    if (port_ != 0) {
      channel_ = std::make_unique<net::TcpChannel>(port_);
    }
  }

  ~ServerProcess() { Crash(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool listening() const { return channel_ != nullptr; }

  // SIGKILL: nothing after the last acked write gets a chance to run.
  void Crash() { Signal(SIGKILL); }
  // SIGTERM: the daemon shuts down cleanly, checkpointing its tablets.
  void Shutdown() { Signal(SIGTERM); }

  proto::Message Call(const proto::Message& request) {
    Result<proto::Message> reply =
        channel_->Call(request, SecondsToMicroseconds(10));
    EXPECT_TRUE(reply.ok()) << reply.status();
    return reply.ok() ? std::move(reply).value() : proto::Message{};
  }

  void Put(const std::string& key, const std::string& value) {
    proto::PutRequest put;
    put.table = kTable;
    put.key = key;
    put.value = value;
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(Call(put))) << key;
  }

  proto::GetReply Get(const std::string& key) {
    proto::GetRequest get;
    get.table = kTable;
    get.key = key;
    proto::Message reply = Call(get);
    EXPECT_TRUE(std::holds_alternative<proto::GetReply>(reply)) << key;
    const auto* got = std::get_if<proto::GetReply>(&reply);
    return got == nullptr ? proto::GetReply{} : *got;
  }

  // The hosted tablets' ranges, in key order (split first when
  // `split_key` is non-empty).
  std::vector<KeyRange> Tablets(const std::string& split_key = "") {
    proto::TabletMapRequest request;
    request.table = kTable;
    request.split_key = split_key;
    proto::Message reply = Call(request);
    const auto* map = std::get_if<proto::TabletMapReply>(&reply);
    EXPECT_NE(map, nullptr);
    std::vector<KeyRange> ranges;
    if (map != nullptr) {
      for (const tablets::TabletInfo& info : map->map.tablets) {
        ranges.push_back(info.range);
      }
    }
    return ranges;
  }

 private:
  void Signal(int signum) {
    channel_.reset();
    if (pid_ > 0) {
      ::kill(pid_, signum);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (output_ != nullptr) {
      ::fclose(output_);
      output_ = nullptr;
    }
  }

  pid_t pid_ = -1;
  FILE* output_ = nullptr;
  uint16_t port_ = 0;
  std::unique_ptr<net::TcpChannel> channel_;
};

class DurableSplitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/pileus_split_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)::system(cmd.c_str());
  }

  // Writes every low and high key (value = key + "-v").
  static void PutAll(ServerProcess& server) {
    for (const auto* keys : {&kLowKeys, &kHighKeys}) {
      for (const std::string& key : *keys) {
        server.Put(key, key + "-v");
      }
    }
  }

  static void ExpectAllReadable(ServerProcess& server) {
    for (const auto* keys : {&kLowKeys, &kHighKeys}) {
      for (const std::string& key : *keys) {
        const proto::GetReply got = server.Get(key);
        EXPECT_TRUE(got.found) << "acked write " << key << " lost";
        EXPECT_EQ(got.value, key + "-v");
      }
    }
  }

  uint64_t WalBytes() const {
    struct stat st;
    return ::stat((dir_ + "/wal.log").c_str(), &st) == 0
               ? static_cast<uint64_t>(st.st_size)
               : 0;
  }

  std::string dir_;
};

const std::vector<KeyRange> kSplitRanges = {KeyRange{"", "m"},
                                            KeyRange{"m", ""}};

TEST_F(DurableSplitTest, SplitThenRestartReopensTheChild) {
  {
    ServerProcess server(dir_);
    ASSERT_TRUE(server.listening());
    PutAll(server);
    EXPECT_EQ(server.Tablets("m"), kSplitRanges);
    // Both halves keep taking writes after the split.
    server.Put("b", "b-v");
    server.Put("z", "z-v");
  }
  ServerProcess restarted(dir_);
  ASSERT_TRUE(restarted.listening());
  EXPECT_EQ(restarted.Tablets(), kSplitRanges);
  ExpectAllReadable(restarted);
  EXPECT_TRUE(restarted.Get("b").found);
  EXPECT_TRUE(restarted.Get("z").found);
}

TEST_F(DurableSplitTest, CheckpointedParentStillReopensTheChild) {
  {
    ServerProcess server(dir_);
    ASSERT_TRUE(server.listening());
    PutAll(server);
    ASSERT_EQ(server.Tablets("m"), kSplitRanges);
    // A clean shutdown checkpoints every tablet, which truncates the
    // parent's WAL and with it the split record.
    server.Shutdown();
  }
  ServerProcess restarted(dir_);
  ASSERT_TRUE(restarted.listening());
  EXPECT_EQ(restarted.Tablets(), kSplitRanges);
  ExpectAllReadable(restarted);
}

TEST_F(DurableSplitTest, RangeSyncAndProbeSpanParentAndChild) {
  ServerProcess server(dir_);
  ASSERT_TRUE(server.listening());
  PutAll(server);
  ASSERT_EQ(server.Tablets("m"), kSplitRanges);

  proto::RangeRequest range;
  range.table = kTable;
  proto::Message range_reply = server.Call(range);
  const auto* scanned = std::get_if<proto::RangeReply>(&range_reply);
  ASSERT_NE(scanned, nullptr);
  ASSERT_EQ(scanned->items.size(), kLowKeys.size() + kHighKeys.size());
  for (size_t i = 1; i < scanned->items.size(); ++i) {
    EXPECT_LT(scanned->items[i - 1].key, scanned->items[i].key);
  }
  EXPECT_TRUE(scanned->served_by_primary);

  // An un-ranged pull merges both tablets' logs in timestamp order.
  proto::SyncRequest sync;
  sync.table = kTable;
  proto::Message sync_reply = server.Call(sync);
  const auto* pulled = std::get_if<proto::SyncReply>(&sync_reply);
  ASSERT_NE(pulled, nullptr);
  ASSERT_EQ(pulled->versions.size(), kLowKeys.size() + kHighKeys.size());
  for (size_t i = 1; i < pulled->versions.size(); ++i) {
    EXPECT_LT(pulled->versions[i - 1].timestamp, pulled->versions[i].timestamp);
  }
  EXPECT_FALSE(pulled->has_more);
  EXPECT_GE(pulled->heartbeat, pulled->versions.back().timestamp);

  proto::ProbeRequest probe;
  probe.table = kTable;
  proto::Message probe_reply = server.Call(probe);
  const auto* probed = std::get_if<proto::ProbeReply>(&probe_reply);
  ASSERT_NE(probed, nullptr);
  EXPECT_TRUE(probed->is_primary);
  EXPECT_GE(probed->high_timestamp, pulled->versions.back().timestamp);
}

TEST_F(DurableSplitTest, CommitSpanningBothTabletsIsRejected) {
  ServerProcess server(dir_);
  ASSERT_TRUE(server.listening());
  PutAll(server);
  ASSERT_EQ(server.Tablets("m"), kSplitRanges);

  const auto write = [](const std::string& key) {
    proto::ObjectVersion version;
    version.key = key;
    version.value = "tx";
    return version;
  };
  proto::CommitRequest spanning_writes;
  spanning_writes.table = kTable;
  spanning_writes.snapshot = Timestamp::Max();
  spanning_writes.writes = {write("a"), write("p")};
  proto::Message reply = server.Call(spanning_writes);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);

  proto::CommitRequest spanning_reads = spanning_writes;
  spanning_reads.writes = {write("a")};
  spanning_reads.read_keys = {"p"};
  reply = server.Call(spanning_reads);
  err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);

  // Neither rejected transaction wrote anything.
  EXPECT_EQ(server.Get("a").value, "a-v");
  EXPECT_EQ(server.Get("p").value, "p-v");

  proto::CommitRequest within_child = spanning_writes;
  within_child.writes = {write("p"), write("y")};
  reply = server.Call(within_child);
  const auto* committed = std::get_if<proto::CommitReply>(&reply);
  ASSERT_NE(committed, nullptr);
  EXPECT_TRUE(committed->committed);
}

TEST_F(DurableSplitTest, LostSplitRecordLeavesParentOwningEverything) {
  uint64_t bytes_before_split = 0;
  {
    ServerProcess server(dir_);
    ASSERT_TRUE(server.listening());
    PutAll(server);
    bytes_before_split = WalBytes();
    ASSERT_GT(bytes_before_split, 0u);
    ASSERT_EQ(server.Tablets("m"), kSplitRanges);
    ASSERT_GT(WalBytes(), bytes_before_split);  // The split record.
    server.Crash();
  }
  // Crash between the child's checkpoint and the parent's split record: the
  // record never reached the parent WAL.
  ASSERT_EQ(::truncate((dir_ + "/wal.log").c_str(),
                       static_cast<off_t>(bytes_before_split)),
            0);
  struct stat orphan;
  ASSERT_EQ(::stat((dir_ + "/child-0/checkpoint.db").c_str(), &orphan), 0);

  ServerProcess restarted(dir_);
  ASSERT_TRUE(restarted.listening());
  EXPECT_EQ(restarted.Tablets(), std::vector<KeyRange>{KeyRange::All()});
  ExpectAllReadable(restarted);
}

}  // namespace
}  // namespace pileus
