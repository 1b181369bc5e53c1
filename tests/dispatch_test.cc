// Request dispatch, run against both storage backends: an in-memory
// StorageNode, and the same node serving a DurableTablet (WAL + checkpoints)
// through DurableStorageService. One dispatcher serves both, so every case
// here must hold for either.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/storage/storage_node.h"

namespace pileus::storage {
namespace {

enum class Backend { kMemory, kDurable };

// Names the test instances in ctest (".../memory", ".../durable").
void PrintTo(Backend backend, std::ostream* os) {
  *os << (backend == Backend::kMemory ? "memory" : "durable");
}

class DispatchTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kMemory) {
      Tablet::Options options;
      options.is_primary = true;
      ASSERT_TRUE(node_.AddTablet("t", options).ok());
      return;
    }
    char tmpl[] = "/tmp/pileus_dispatch_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    persist::DurableTablet::Options options;
    options.directory = dir_;
    options.tablet.is_primary = true;
    auto opened = persist::DurableTablet::Open(options, &clock_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    durable_ = std::move(opened).value();
    ASSERT_TRUE(node_.AttachTablet("t", durable_.get()).ok());
    service_ = std::make_unique<persist::DurableStorageService>(
        &node_, persist::GroupCommitConfig{});
  }

  void TearDown() override {
    if (!dir_.empty()) {
      const std::string cmd = "rm -rf '" + dir_ + "'";
      (void)::system(cmd.c_str());
    }
  }

  proto::Message Handle(const proto::Message& request) {
    return service_ != nullptr ? service_->Handle(request)
                               : node_.Handle(request);
  }

  proto::Message Put(const std::string& key, const std::string& value = "v") {
    clock_.AdvanceMicros(1);
    proto::PutRequest put;
    put.table = "t";
    put.key = key;
    put.value = value;
    return Handle(put);
  }

  // Splits the table's tablets at "m" through the admin verb.
  void SplitAtM() {
    proto::TabletMapRequest split;
    split.table = "t";
    split.split_key = "m";
    proto::Message reply = Handle(split);
    const auto* map = std::get_if<proto::TabletMapReply>(&reply);
    ASSERT_NE(map, nullptr);
    ASSERT_EQ(map->map.tablets.size(), 2u);
  }

  ManualClock clock_{SecondsToMicroseconds(1000)};
  StorageNode node_{"node-1", "US", &clock_};
  std::string dir_;
  std::unique_ptr<persist::DurableTablet> durable_;
  std::unique_ptr<persist::DurableStorageService> service_;
};

TEST_P(DispatchTest, PutGetProbeSync) {
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(Put("k")));

  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  proto::Message get_reply = Handle(get);
  const auto* gr = std::get_if<proto::GetReply>(&get_reply);
  ASSERT_NE(gr, nullptr);
  EXPECT_TRUE(gr->found);
  EXPECT_EQ(gr->value, "v");
  EXPECT_TRUE(gr->served_by_primary);

  proto::ProbeRequest probe;
  probe.table = "t";
  proto::Message probe_reply = Handle(probe);
  const auto* pr = std::get_if<proto::ProbeReply>(&probe_reply);
  ASSERT_NE(pr, nullptr);
  EXPECT_TRUE(pr->is_primary);
  EXPECT_GT(pr->high_timestamp, Timestamp::Zero());

  proto::SyncRequest sync;
  sync.table = "t";
  proto::Message sync_reply = Handle(sync);
  const auto* sr = std::get_if<proto::SyncReply>(&sync_reply);
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->versions.size(), 1u);
  EXPECT_EQ(node_.requests_served(), 4u);
}

TEST_P(DispatchTest, UnknownTableIsWrongNode) {
  proto::GetRequest get;
  get.table = "other";
  get.key = "k";
  proto::Message reply = Handle(get);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kWrongNode);
}

TEST_P(DispatchTest, GetAtDispatch) {
  (void)Put("k", "v1");
  const Timestamp first = node_.HighTimestamp("t", "k");
  clock_.AdvanceMicros(10);
  (void)Put("k", "v2");

  proto::GetAtRequest get_at;
  get_at.table = "t";
  get_at.key = "k";
  get_at.snapshot = first;
  proto::Message reply = Handle(get_at);
  const auto* ar = std::get_if<proto::GetAtReply>(&reply);
  ASSERT_NE(ar, nullptr);
  EXPECT_TRUE(ar->found);
  EXPECT_EQ(ar->value, "v1");
}

TEST_P(DispatchTest, RangeDispatch) {
  for (const char* key : {"a", "b", "c"}) {
    (void)Put(key);
  }
  proto::RangeRequest range;
  range.table = "t";
  range.begin = "a";
  range.end = "c";
  proto::Message reply = Handle(range);
  const auto* rr = std::get_if<proto::RangeReply>(&reply);
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->items.size(), 2u);
  EXPECT_TRUE(rr->served_by_primary);
}

TEST_P(DispatchTest, NonRequestRejected) {
  proto::Message reply = Handle(proto::Message(proto::GetReply{}));
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
}

// --- Rules across split tablets ---

TEST_P(DispatchTest, UnrangedSyncMergesEveryTablet) {
  SplitAtM();
  std::vector<std::string> written;
  for (const char* key : {"a", "p", "b", "q", "c", "r", "d", "s"}) {
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(Put(key)));
    written.push_back(key);
  }
  // Small batches: the merged heartbeat may only cover what every tablet
  // sent, so pulling on from it must deliver each write exactly once.
  std::vector<std::string> pulled;
  proto::SyncRequest sync;
  sync.table = "t";
  sync.max_versions = 2;
  for (int round = 0; round < 20; ++round) {
    // An idle tablet's heartbeat certifies only up to the clock's last
    // microsecond, so the newest write merges once the clock moves on.
    clock_.AdvanceMicros(1);
    proto::Message reply = Handle(sync);
    const auto* sr = std::get_if<proto::SyncReply>(&reply);
    ASSERT_NE(sr, nullptr);
    for (const proto::ObjectVersion& version : sr->versions) {
      EXPECT_GT(version.timestamp, sync.after);
      EXPECT_LE(version.timestamp, sr->heartbeat);
      pulled.push_back(version.key);
    }
    sync.after = sr->heartbeat;
    if (!sr->has_more) {
      break;
    }
  }
  EXPECT_EQ(pulled, written);  // Timestamp order is write order.
}

TEST_P(DispatchTest, CommitKeepsWritesAndReadsInOneTablet) {
  SplitAtM();
  const auto write = [](const std::string& key) {
    proto::ObjectVersion version;
    version.key = key;
    version.value = "tx";
    return version;
  };
  proto::CommitRequest commit;
  commit.table = "t";
  commit.snapshot = Timestamp::Max();
  commit.writes = {write("a"), write("p")};
  proto::Message reply = Handle(commit);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);

  commit.writes = {write("a")};
  commit.read_keys = {"p"};
  reply = Handle(commit);
  err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);

  commit.read_keys = {"b"};
  reply = Handle(commit);
  const auto* committed = std::get_if<proto::CommitReply>(&reply);
  ASSERT_NE(committed, nullptr);
  EXPECT_TRUE(committed->committed);
}

TEST_P(DispatchTest, ProbeAndRangeAuthorityIsTheAndOfContributors) {
  SplitAtM();
  (void)Put("a");
  (void)Put("p");
  node_.FindTablet("t", "p")->SetPrimary(false);

  proto::ProbeRequest probe;
  probe.table = "t";
  proto::Message probe_reply = Handle(probe);
  ASSERT_TRUE(std::holds_alternative<proto::ProbeReply>(probe_reply));
  EXPECT_FALSE(std::get<proto::ProbeReply>(probe_reply).is_primary);

  proto::RangeRequest range;
  range.table = "t";
  proto::Message whole = Handle(range);
  ASSERT_TRUE(std::holds_alternative<proto::RangeReply>(whole));
  EXPECT_FALSE(std::get<proto::RangeReply>(whole).served_by_primary);
  EXPECT_EQ(std::get<proto::RangeReply>(whole).items.size(), 2u);

  range.end = "m";  // Only the primary tablet contributes.
  proto::Message lower = Handle(range);
  ASSERT_TRUE(std::holds_alternative<proto::RangeReply>(lower));
  EXPECT_TRUE(std::get<proto::RangeReply>(lower).served_by_primary);
}

// --- Admission, config fencing and self-reports ---

TEST_P(DispatchTest, AdmissionShedsLoad) {
  AdmissionOptions admission;
  admission.tenant_ops_per_sec = 10;
  admission.tenant_burst_ops = 2;
  admission.tenant_max_queue_ops = 2;
  node_.EnableAdmission(admission);
  int shed = 0;
  for (int i = 0; i < 20; ++i) {
    proto::GetRequest get;
    get.table = "t";
    get.key = "k";
    proto::Message reply = Handle(get);  // All at one clock instant.
    if (const auto* err = std::get_if<proto::ErrorReply>(&reply)) {
      EXPECT_EQ(err->code, StatusCode::kOverloaded);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_LT(shed, 20);
}

TEST_P(DispatchTest, ConfigNamingAnotherPrimaryFencesPuts) {
  proto::ConfigRequest install;
  install.table = "t";
  install.install = true;
  install.config.epoch = 2;
  install.config.primary = "node-2";
  install.config.members = {"node-1", "node-2"};
  proto::Message installed = Handle(install);
  ASSERT_TRUE(std::holds_alternative<proto::ConfigReply>(installed));
  ASSERT_TRUE(std::get<proto::ConfigReply>(installed).accepted);

  proto::Message reply = Put("k");
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
  EXPECT_EQ(err->config_epoch, 2u);
  EXPECT_EQ(err->primary_hint, "node-2");
}

TEST_P(DispatchTest, SelfConditionReportsTheHighTimestamp) {
  proto::Message reply = Put("k");
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(reply));
  const monitoring::NodeCondition cond = node_.SelfCondition("t");
  EXPECT_EQ(cond.node, "node-1");
  EXPECT_EQ(cond.high_timestamp, std::get<proto::PutReply>(reply).timestamp);
  EXPECT_EQ(cond.high_age_us, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, DispatchTest,
                         ::testing::Values(Backend::kMemory,
                                           Backend::kDurable));

}  // namespace
}  // namespace pileus::storage
