// Acceptance tests for the consistency-audit harness (DESIGN.md "Consistency
// auditing"): seeded runs in every world come back clean, the offline
// checker's verdicts agree with the client's claimed subSLA telemetry (its
// TraceEvent stream), and sessions keep their audit identity across
// serialized hand-off between frontends.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/cache/client_cache.h"
#include "src/core/client.h"
#include "src/core/sla.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/experiments/scenario.h"
#include "src/persist/durable_tablet.h"
#include "src/telemetry/trace.h"
#include "src/workload/ycsb.h"
#include "tests/testbed_fixture.h"

namespace pileus::experiments {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/pileus_audit_test.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr) << "mkdtemp failed";
  return dir == nullptr ? "" : dir;
}

TEST(FaultScenarioTest, NamesRoundTrip) {
  for (const FaultScenario scenario : AllFaultScenarios()) {
    const std::optional<FaultScenario> parsed =
        ParseFaultScenario(FaultScenarioName(scenario));
    ASSERT_TRUE(parsed.has_value()) << FaultScenarioName(scenario);
    EXPECT_EQ(*parsed, scenario);
  }
  EXPECT_FALSE(ParseFaultScenario("no-such-scenario").has_value());
}

// One audit case: a world and a scenario it supports, run at a small op
// count over a few seeds. Every case must come back clean with a
// substantial audited history and zero lost acked writes.
struct WorldCase {
  AuditWorld world;
  FaultScenario scenario;
  bool coordinator_kill = false;
};

std::string WorldCaseName(const WorldCase& c) {
  std::string name = c.world == AuditWorld::kSim   ? "sim_"
                     : c.world == AuditWorld::kTcp ? "tcp_"
                                                   : "churn_";
  if (c.coordinator_kill) {
    name += "kill_";
  }
  for (const char ch : FaultScenarioName(c.scenario)) {
    name += ch == '-' ? '_' : ch;
  }
  return name;
}

// Test names and gtest's parameter printout both use the case name.
void PrintTo(const WorldCase& c, std::ostream* os) { *os << WorldCaseName(c); }

std::vector<WorldCase> AllWorldCases() {
  std::vector<WorldCase> cases;
  for (const AuditWorld world :
       {AuditWorld::kSim, AuditWorld::kTcp, AuditWorld::kChurn}) {
    for (const bool kill : {false, true}) {
      if (kill && world != AuditWorld::kChurn) {
        continue;
      }
      for (const FaultScenario scenario : AllFaultScenarios()) {
        if (WorldSupports(world, scenario)) {
          cases.push_back(WorldCase{world, scenario, kill});
        }
      }
    }
  }
  return cases;
}

class AuditWorldTest : public testing::TestWithParam<WorldCase> {};

TEST_P(AuditWorldTest, RunsClean) {
  const WorldCase& c = GetParam();
  // Failover seeds 3 and 11 cover both the single and the seeded double
  // promotion.
  const std::vector<uint64_t> seeds =
      c.scenario == FaultScenario::kFailover ? std::vector<uint64_t>{3, 11}
                                             : std::vector<uint64_t>{1, 2};
  for (const uint64_t seed : seeds) {
    AuditOptions options;
    options.world = c.world;
    options.scenario = c.scenario;
    options.coordinator_kill = c.coordinator_kill;
    options.seed = seed;
    options.total_ops = 300;
    options.key_count = 50;
    // Not created yet: the harness makes every missing level.
    options.durable_root = MakeTempDir() + "/nested/run";
    const AuditResult result = RunAudit(options);
    ASSERT_TRUE(result.setup.ok()) << result.Summary();
    EXPECT_TRUE(result.ok())
        << result.Summary() << "\n" << result.report.ToString();
    EXPECT_TRUE(result.history.ground_truth_complete) << result.Summary();
    EXPECT_EQ(result.ops_attempted, 300u) << result.Summary();
    EXPECT_GT(result.sessions, 1u) << result.Summary();
    EXPECT_GT(result.report.reads_checked, 50u) << result.Summary();
    EXPECT_GT(result.report.writes_checked, 50u) << result.Summary();
    EXPECT_GT(result.report.claims_checked, 0u) << result.Summary();
    EXPECT_GE(result.acked_writes, result.report.writes_checked)
        << result.Summary();
    EXPECT_EQ(result.lost_acked_writes, 0u) << result.Summary();
    if (c.scenario == FaultScenario::kHandoff) {
      EXPECT_GT(result.handoffs, 0u) << result.Summary();
    }
    if (c.scenario == FaultScenario::kFailover) {
      // The schedule crashes the primary mid-run, so the lease-based
      // coordinator must have promoted at least once.
      EXPECT_GE(result.failovers, 1u) << result.Summary();
    }
    if (c.world == AuditWorld::kChurn) {
      EXPECT_GT(result.splits, 0u) << result.Summary();
      EXPECT_GT(result.migrations, 0u) << result.Summary();
      EXPECT_GT(result.final_tablets, 2u) << result.Summary();
    }
    if (c.coordinator_kill) {
      // Every kill at a protocol crash point is followed by a standby
      // recovery from the intent log (DESIGN.md Section 15).
      EXPECT_GT(result.coordinator_kills, 0u) << result.Summary();
      EXPECT_EQ(result.coordinator_recoveries, result.coordinator_kills)
          << result.Summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, AuditWorldTest, testing::ValuesIn(AllWorldCases()),
    [](const testing::TestParamInfo<WorldCase>& case_info) {
      return WorldCaseName(case_info.param);
    });

TEST(AuditSetupTest, UncreatableDurableRootIsASetupErrorInEveryWorld) {
  const std::string dir = MakeTempDir();
  const std::string file = dir + "/not-a-directory";
  std::ofstream(file) << "x";
  for (const AuditWorld world :
       {AuditWorld::kSim, AuditWorld::kTcp, AuditWorld::kChurn}) {
    AuditOptions options;
    options.world = world;
    options.scenario = FaultScenario::kCrashRestart;
    options.total_ops = 50;
    options.durable_root = file + "/run";
    const AuditResult result = RunAudit(options);
    EXPECT_FALSE(result.setup.ok()) << result.Summary();
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.report.violations.empty()) << result.Summary();
    EXPECT_EQ(result.ops_attempted, 0u);
    EXPECT_NE(result.Summary().find("setup failed"), std::string::npos)
        << result.Summary();
  }
}

TEST(AuditSetupTest, UnopenableWalIsASetupErrorInEveryWorld) {
  // The durable root exists, but the world's WAL location cannot hold a
  // file: the WAL open fails inside the world and must surface as the
  // run's setup status.
  const struct {
    AuditWorld world;
    const char* blocked;
  } cases[] = {{AuditWorld::kSim, "/England.wal"},
               {AuditWorld::kTcp, "/primary/wal.log"},
               {AuditWorld::kChurn, "/n1.wal"}};
  for (const auto& c : cases) {
    AuditOptions options;
    options.world = c.world;
    options.scenario = FaultScenario::kCrashRestart;
    options.total_ops = 50;
    options.durable_root = MakeTempDir();
    std::filesystem::create_directories(options.durable_root + c.blocked);
    const AuditResult result = RunAudit(options);
    EXPECT_FALSE(result.setup.ok()) << result.Summary();
    EXPECT_TRUE(result.report.violations.empty()) << result.Summary();
    EXPECT_EQ(result.ops_attempted, 0u) << result.Summary();
  }
}

TEST(TabletChurnTest, CoordinatorKillRequiresDurableRoot) {
  AuditOptions options;
  options.world = AuditWorld::kChurn;
  options.coordinator_kill = true;
  options.durable_root = "";
  const AuditResult result = RunAudit(options);
  EXPECT_FALSE(result.setup.ok());
}

TEST(AuditScenarioTest, AggregatorPrimedSweepStaysCleanThroughItsDeath) {
  // Shared-monitoring priors (DESIGN.md Section 12) feed every frontend's
  // monitor for the first half of the run, then the aggregator pump dies
  // mid-run. Neither phase may produce an audit violation: priors only
  // steer selection, never the guarantees themselves.
  for (const FaultScenario scenario :
       {FaultScenario::kNone, FaultScenario::kPartition}) {
    for (const uint64_t seed : {4u, 13u}) {
      AuditOptions options;
      options.seed = seed;
      options.scenario = scenario;
      options.total_ops = 300;
      options.key_count = 50;
      options.enable_aggregator = true;
      options.durable_root = MakeTempDir();
      const AuditResult result = RunAudit(options);
      EXPECT_TRUE(result.ok())
          << result.Summary() << "\n" << result.report.ToString();
      EXPECT_GT(result.report.reads_checked, 0u) << result.Summary();
      EXPECT_GT(result.report.claims_checked, 0u) << result.Summary();
    }
  }
}

TEST(TcpAuditScenarioTest, CompactedPrimaryLogIsAuditedAsIncomplete) {
  AuditOptions options;
  options.world = AuditWorld::kTcp;
  options.seed = 3;
  options.total_ops = 200;
  options.durable_root = MakeTempDir();
  ASSERT_FALSE(options.durable_root.empty());
  // Seed the primary's WAL past the default auto-checkpoint threshold: the
  // run's first write then checkpoints, which compacts the primary's update
  // log, so the exported commit order misses the oldest committed writes.
  const std::string primary_dir = options.durable_root + "/primary";
  ASSERT_EQ(::mkdir(primary_dir.c_str(), 0755), 0);
  {
    persist::DurableTablet::Options seed_options;
    seed_options.directory = primary_dir;
    seed_options.tablet.is_primary = true;
    const uint64_t threshold = seed_options.checkpoint_threshold_bytes;
    seed_options.checkpoint_threshold_bytes = 0;  // Never while seeding.
    auto seeded = persist::DurableTablet::Open(seed_options,
                                               RealClock::Instance());
    ASSERT_TRUE(seeded.ok()) << seeded.status();
    const std::string bulk(size_t{1} << 20, 'b');
    for (int i = 0; (*seeded)->wal().bytes_written() <= threshold; ++i) {
      ASSERT_TRUE((*seeded)->HandlePut("bulk" + std::to_string(i), bulk).ok());
    }
  }

  const AuditResult result = RunAudit(options);
  EXPECT_FALSE(result.history.ground_truth_complete);
  for (const audit::Violation& violation : result.report.violations) {
    EXPECT_NE(violation.type, audit::ViolationType::kLostWrite)
        << violation.message;
    EXPECT_NE(violation.type, audit::ViolationType::kPhantomRead)
        << violation.message;
  }
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_GT(result.ops_attempted, 0u);
  std::filesystem::remove_all(options.durable_root);  // Megabytes of WAL.
}

TEST(AuditScenarioTest, SameSeedIsReproducible) {
  AuditOptions options;
  options.seed = 9;
  options.scenario = FaultScenario::kPartition;
  options.total_ops = 200;
  options.durable_root = MakeTempDir();
  const AuditResult first = RunAudit(options);
  options.durable_root = MakeTempDir();
  const AuditResult second = RunAudit(options);
  EXPECT_EQ(first.Summary(), second.Summary());
  ASSERT_EQ(first.history.ops.size(), second.history.ops.size());
  // Session ids come from a process-global counter, so two runs in one
  // process assign different raw ids; compare them up to renumbering by
  // first appearance.
  std::map<uint64_t, uint64_t> renumber_first;
  std::map<uint64_t, uint64_t> renumber_second;
  const auto canonical = [](const core::OpRecord& op,
                            std::map<uint64_t, uint64_t>& renumber) {
    core::OpRecord copy = op;
    copy.session_id =
        renumber.emplace(op.session_id, renumber.size() + 1).first->second;
    return audit::DescribeOp(copy);
  };
  for (size_t i = 0; i < first.history.ops.size(); ++i) {
    EXPECT_EQ(canonical(first.history.ops[i], renumber_first),
              canonical(second.history.ops[i], renumber_second))
        << "op #" << i;
  }
}

TEST(AuditScenarioTest, SummaryCitesTheSeedOnFailure) {
  // A summary for a failing report must contain the repro handle. Forge a
  // failing result rather than hunting for a real violation.
  AuditResult result;
  result.options.seed = 42;
  result.options.scenario = FaultScenario::kGray;
  result.report.violations.push_back(audit::Violation{
      audit::ViolationType::kStaleStrongRead, 0, audit::kNoRelatedOp, "x"});
  const std::string summary = result.Summary();
  EXPECT_NE(summary.find("FAIL"), std::string::npos) << summary;
  EXPECT_NE(summary.find("(reproduce with --seed 42 --scenarios gray)"),
            std::string::npos)
      << summary;
}

TEST(AuditScenarioTest, SummaryReproducesEveryNonDefaultSetting) {
  // A failing TCP run must re-run over TCP, with the cache and the sizes it
  // used, not as a default simulator run.
  AuditResult result;
  result.options.world = AuditWorld::kTcp;
  result.options.seed = 7;
  result.options.scenario = FaultScenario::kHandoff;
  result.options.total_ops = 200;
  result.options.key_count = 30;
  result.options.client_cache = true;
  result.options.cache_capacity_bytes = 4096;
  result.lost_acked_writes = 1;
  const std::string summary = result.Summary();
  EXPECT_NE(summary.find("FAIL scenario=handoff transport=tcp seed=7"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("(reproduce with --seed 7 --scenarios handoff "
                         "--transport tcp --ops 200 --keys 30 --cache "
                         "--cache_bytes 4096)"),
            std::string::npos)
      << summary;

  AuditResult churn;
  churn.options.world = AuditWorld::kChurn;
  churn.options.coordinator_kill = true;
  churn.options.scenario = FaultScenario::kPartition;
  churn.options.seed = 3;
  churn.lost_acked_writes = 1;
  EXPECT_NE(churn.Summary().find("(reproduce with --seed 3 --scenarios "
                                 "tablet-churn-kill)"),
            std::string::npos)
      << churn.Summary();
}

// The checker's input (OpRecord claims) and the PR-2 telemetry stream
// (TraceEvent met_rank/consistency) are emitted by the same client code path;
// this acceptance test pins them together so neither can drift silently, and
// then has the checker re-verify every claim it just cross-validated.
TEST(AuditTelemetryTest, CheckerInputMatchesClaimedSubSlaTelemetry) {
  GeoTestbed testbed(pileus::testbed::FastGeoOptions(11));
  pileus::testbed::PreloadAndReplicate(testbed, 50);

  telemetry::TraceBuffer trace;
  audit::HistoryRecorder recorder;
  core::PileusClient::Options options;
  options.trace_sink = &trace;
  options.op_observer = &recorder;
  auto client = testbed.MakeClient(kUs, options);
  client->StartProbing();
  testbed.env().RunFor(SecondsToMicroseconds(2));

  core::Session session =
      client->client().BeginSession(core::ShoppingCartSla()).value();
  for (int i = 0; i < 200; ++i) {
    const std::string key = workload::YcsbWorkload::KeyForIndex(i % 50);
    if (i % 3 == 0) {
      ASSERT_TRUE(client->client().Put(session, key, "v").ok());
    } else {
      ASSERT_TRUE(client->client().Get(session, key).ok());
    }
    testbed.env().RunFor(MillisecondsToMicroseconds(5));
  }

  // Pair the Get traces with the Get records, in emission order.
  std::vector<telemetry::TraceEvent> get_events;
  for (const telemetry::TraceEvent& event : trace.Snapshot()) {
    if (event.op == telemetry::TraceOp::kGet) {
      get_events.push_back(event);
    }
  }
  std::vector<core::OpRecord> get_records;
  for (const core::OpRecord& record : recorder.Snapshot().ops) {
    if (record.op == core::AuditOp::kGet) {
      get_records.push_back(record);
    }
  }
  ASSERT_EQ(get_events.size(), get_records.size());
  ASSERT_GT(get_events.size(), 100u);
  int met_claims = 0;
  for (size_t i = 0; i < get_events.size(); ++i) {
    const telemetry::TraceEvent& event = get_events[i];
    const core::OpRecord& record = get_records[i];
    EXPECT_EQ(event.key, record.key) << "op " << i;
    EXPECT_EQ(event.node, record.node) << "op " << i;
    EXPECT_EQ(event.met_rank, record.claimed_met_rank) << "op " << i;
    EXPECT_EQ(event.from_primary, record.from_primary) << "op " << i;
    EXPECT_EQ(event.read_timestamp, record.high_timestamp) << "op " << i;
    if (record.claimed_met_rank >= 0) {
      ++met_claims;
      EXPECT_EQ(event.consistency, record.claimed_guarantee.ToString())
          << "op " << i;
    }
  }
  EXPECT_GT(met_claims, 100);

  // And the claims both streams agree on must actually be true.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.claims_checked, 100u);
}

TEST(AuditHandoffTest, SerializedHandoffKeepsOneSessionIdentity) {
  GeoTestbed testbed(pileus::testbed::FastGeoOptions(12));
  pileus::testbed::PreloadAndReplicate(testbed, 20);

  audit::HistoryRecorder recorder;
  core::PileusClient::Options options;
  options.op_observer = &recorder;
  auto us = testbed.MakeClient(kUs, options);
  auto india = testbed.MakeClient(kIndia, options);
  testbed.env().RunFor(SecondsToMicroseconds(2));

  core::Session session =
      us->client().BeginSession(AuditSla()).value();
  ASSERT_TRUE(us->client().Put(session, "h", "before").ok());
  ASSERT_TRUE(us->client().Get(session, "h").ok());

  // Move the session to the other frontend, as scenario kHandoff does.
  Result<core::Session> resumed =
      core::Session::Deserialize(session.Serialize());
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(india->client().Put(*resumed, "h", "after").ok());
  ASSERT_TRUE(india->client().Get(*resumed, "h").ok());

  const audit::History history = recorder.Snapshot();
  ASSERT_EQ(history.ops.size(), 4u);
  for (const core::OpRecord& record : history.ops) {
    EXPECT_EQ(record.session_id, history.ops[0].session_id)
        << audit::DescribeOp(record);
  }
  // The moved session still carries read-my-writes state: the checker must
  // see one continuous session, not two.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditCacheTest, CacheEnabledSweepsStayClean) {
  // Same scenarios as the plain sweep, but every frontend now owns a
  // consistency-aware client cache, so the checker audits locally served
  // reads (claimed subSLA + cached timestamp) like any network read.
  uint64_t total_cache_served = 0;
  for (const FaultScenario scenario :
       {FaultScenario::kNone, FaultScenario::kPartition,
        FaultScenario::kCrashRestart}) {
    for (const uint64_t seed : {1u, 2u}) {
      AuditOptions options;
      options.seed = seed;
      options.scenario = scenario;
      options.total_ops = 300;
      options.key_count = 50;
      options.client_cache = true;
      options.durable_root = MakeTempDir();
      const AuditResult result = RunAudit(options);
      EXPECT_TRUE(result.ok())
          << result.Summary() << "\n" << result.report.ToString();
      EXPECT_GT(result.report.reads_checked, 0u) << result.Summary();
      total_cache_served += result.cache_served;
    }
  }
  // The cache must actually participate, not just sit there unused.
  EXPECT_GT(total_cache_served, 0u);
}

TEST(AuditCacheTest, HandoffFloorsStaleCacheOnTheNewFrontend) {
  // Regression for the hand-off rule: the receiving frontend's cache may
  // hold entries that predate everything the moved session has seen, and
  // must not serve them to it. Session::Deserialize floors the cache at
  // max(max_read, max_write), which the client checks per entry.
  GeoTestbed testbed(pileus::testbed::FastGeoOptions(21));
  pileus::testbed::PreloadAndReplicate(testbed, 20);

  audit::HistoryRecorder recorder;
  cache::ClientCache us_cache;
  cache::ClientCache india_cache;
  core::PileusClient::Options us_options;
  us_options.op_observer = &recorder;
  us_options.cache = &us_cache;
  core::PileusClient::Options india_options;
  india_options.op_observer = &recorder;
  india_options.cache = &india_cache;
  auto us = testbed.MakeClient(kUs, us_options);
  auto india = testbed.MakeClient(kIndia, india_options);
  testbed.env().RunFor(SecondsToMicroseconds(2));

  const core::Sla eventual =
      core::Sla().Add(core::Guarantee::Eventual(), SecondsToMicroseconds(10),
                      1.0);

  // India's cache learns "h" does not exist (a negative entry).
  core::Session scout = india->client().BeginSession(eventual).value();
  Result<core::GetResult> absent = india->client().Get(scout, "h");
  ASSERT_TRUE(absent.ok());
  ASSERT_FALSE(absent->found);

  // The session writes and reads "h" on the US frontend, then waits long
  // enough for replication to carry the write everywhere.
  core::Session session = us->client().BeginSession(eventual).value();
  ASSERT_TRUE(us->client().Put(session, "h", "moved").ok());
  ASSERT_TRUE(us->client().Get(session, "h").ok());
  testbed.env().RunFor(SecondsToMicroseconds(30));

  // A *fresh* session on India happily serves the stale negative entry —
  // legal under eventual consistency with no history.
  core::Session fresh = india->client().BeginSession(eventual).value();
  Result<core::GetResult> stale_ok = india->client().Get(fresh, "h");
  ASSERT_TRUE(stale_ok.ok());
  EXPECT_TRUE(stale_ok->outcome.from_cache);
  EXPECT_FALSE(stale_ok->found);

  // The moved session must not see it: its cache floor (the hand-off
  // write's timestamp) exceeds the entry's valid_through, so the Get goes
  // to the network and finds the write.
  Result<core::Session> moved =
      core::Session::Deserialize(session.Serialize());
  ASSERT_TRUE(moved.ok());
  EXPECT_GE(moved->cache_floor(), session.LastPutTimestamp("h"));
  Result<core::GetResult> after = india->client().Get(*moved, "h");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->outcome.from_cache);
  ASSERT_TRUE(after->found);
  EXPECT_EQ(after->value, "moved");

  // The whole history — stale-but-legal serve included — audits clean.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace pileus::experiments
