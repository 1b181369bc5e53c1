#include "src/experiments/scenario.h"

#include <filesystem>
#include <set>
#include <sstream>
#include <system_error>
#include <tuple>
#include <utility>

#include "src/experiments/harness.h"
#include "src/persist/wal.h"

namespace pileus::experiments {

std::string_view FaultScenarioName(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kNone:
      return "none";
    case FaultScenario::kPartition:
      return "partition";
    case FaultScenario::kDrops:
      return "drops";
    case FaultScenario::kGray:
      return "gray";
    case FaultScenario::kCrashRestart:
      return "crash-restart";
    case FaultScenario::kHandoff:
      return "handoff";
    case FaultScenario::kFailover:
      return "failover";
    case FaultScenario::kOverload:
      return "overload";
  }
  return "unknown";
}

std::optional<FaultScenario> ParseFaultScenario(std::string_view name) {
  for (FaultScenario scenario : AllFaultScenarios()) {
    if (name == FaultScenarioName(scenario)) {
      return scenario;
    }
  }
  return std::nullopt;
}

std::vector<FaultScenario> AllFaultScenarios() {
  return {FaultScenario::kNone,         FaultScenario::kPartition,
          FaultScenario::kDrops,        FaultScenario::kGray,
          FaultScenario::kCrashRestart, FaultScenario::kHandoff,
          FaultScenario::kFailover,     FaultScenario::kOverload};
}

bool WorldSupports(AuditWorld world, FaultScenario scenario) {
  switch (world) {
    case AuditWorld::kSim:
      return true;
    case AuditWorld::kTcp:
      return scenario == FaultScenario::kNone ||
             scenario == FaultScenario::kCrashRestart ||
             scenario == FaultScenario::kHandoff;
    case AuditWorld::kChurn:
      return scenario == FaultScenario::kNone ||
             scenario == FaultScenario::kPartition ||
             scenario == FaultScenario::kCrashRestart;
  }
  return false;
}

core::Sla AuditSla() {
  return core::Sla()
      .Add(core::Guarantee::Strong(), MillisecondsToMicroseconds(180), 1.0)
      .Add(core::Guarantee::Causal(), MillisecondsToMicroseconds(250), 0.8)
      .Add(core::Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(300),
           0.6)
      .Add(core::Guarantee::BoundedSeconds(10),
           MillisecondsToMicroseconds(400), 0.4)
      .Add(core::Guarantee::Monotonic(), MillisecondsToMicroseconds(500), 0.2)
      .Add(core::Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
}

std::string AuditResult::Summary() const {
  const AuditOptions defaults;
  const bool churn = options.world == AuditWorld::kChurn;
  // pileus_audit sweeps every churn sub-fault under one scenario name.
  const std::string name =
      churn ? (options.coordinator_kill ? "tablet-churn-kill" : "tablet-churn")
            : std::string(FaultScenarioName(options.scenario));
  std::ostringstream os;
  os << (ok() ? "PASS" : "FAIL") << " scenario=" << name;
  if (churn) {
    os << "/" << FaultScenarioName(options.scenario);
  }
  if (options.world == AuditWorld::kTcp) {
    os << " transport=tcp";
  }
  os << " seed=" << options.seed << ": ";
  if (!setup.ok()) {
    os << "setup failed: " << setup.ToString();
  } else {
    os << ops_attempted << " ops (" << ops_failed << " failed), " << sessions
       << " sessions";
    if (handoffs > 0) {
      os << ", " << handoffs << " handoffs";
    }
    if (cache_served > 0) {
      os << ", " << cache_served << " cache-served";
    }
    if (failovers > 0) {
      os << ", " << failovers << " failovers";
    }
    if (churn) {
      os << ", " << splits << " splits, " << migrations << " migrations ("
         << migration_failures << " failed), " << map_refreshes
         << " map refreshes, " << final_tablets << " tablets @ map v"
         << final_map_version;
    }
    if (coordinator_kills > 0 || coordinator_recoveries > 0) {
      os << "; " << coordinator_kills << " coordinator kills ("
         << coordinator_recoveries << " recovered)";
    }
    os << "; " << acked_writes << " acked writes (" << lost_acked_writes
       << " lost); " << report.reads_checked << " reads, "
       << report.writes_checked << " writes, " << report.ranges_checked
       << " ranges, " << report.claims_checked << " claims checked";
  }
  if (ok()) {
    return os.str();
  }
  if (setup.ok()) {
    os << "; " << report.violations.size() << " violation"
       << (report.violations.size() == 1 ? "" : "s");
  }
  os << " (reproduce with --seed " << options.seed << " --scenarios " << name;
  if (options.world == AuditWorld::kTcp) {
    os << " --transport tcp";
  }
  if (options.total_ops != defaults.total_ops) {
    os << " --ops " << options.total_ops;
  }
  if (options.key_count != defaults.key_count) {
    os << " --keys " << options.key_count;
  }
  if (options.client_cache) {
    os << " --cache";
    if (options.cache_capacity_bytes != defaults.cache_capacity_bytes) {
      os << " --cache_bytes " << options.cache_capacity_bytes;
    }
  }
  if (options.enable_aggregator) {
    os << " --aggregator";
  }
  os << ")";
  return os.str();
}

namespace {

// (key, timestamp, is_tombstone) of each committed write.
using CommittedSet = std::set<std::tuple<std::string, Timestamp, bool>>;

// Appends a lost-write violation for every primary-WAL entry absent from the
// ground truth. Preloaded keys may bypass a WAL, so the subset relation (WAL
// within truth), not equality, is the invariant.
void CrossCheckPrimaryWal(const std::string& path,
                          const CommittedSet& truth,
                          audit::AuditReport* report) {
  Result<std::vector<proto::ObjectVersion>> wal =
      persist::WriteAheadLog::ReadVersions(path);
  if (!wal.ok()) {
    report->violations.push_back(audit::Violation{
        audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
        "primary WAL at '" + path + "' unreadable: " +
            wal.status().ToString()});
    return;
  }
  for (const proto::ObjectVersion& v : wal.value()) {
    if (truth.count({v.key, v.timestamp, v.is_tombstone}) == 0) {
      report->violations.push_back(audit::Violation{
          audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
          "primary WAL holds '" + v.key + "' at " + v.timestamp.ToString() +
              " which the update-log export lacks"});
    }
  }
}

}  // namespace

void AuditHistory(audit::HistoryRecorder& recorder,
                  std::vector<proto::ObjectVersion> truth, bool contiguous,
                  const std::string& primary_wal, AuditResult* result) {
  recorder.SetGroundTruth(std::move(truth), contiguous);
  result->history = recorder.Snapshot();
  result->report = audit::ConsistencyChecker().Check(result->history);

  CommittedSet committed;
  for (const proto::ObjectVersion& v : result->history.ground_truth) {
    committed.emplace(v.key, v.timestamp, v.is_tombstone);
  }
  for (const core::OpRecord& op : result->history.ops) {
    const bool is_delete = op.op == core::AuditOp::kDelete;
    if (op.ok && (is_delete || op.op == core::AuditOp::kPut)) {
      ++result->acked_writes;
      if (contiguous &&
          committed.count({op.key, op.write_timestamp, is_delete}) == 0) {
        ++result->lost_acked_writes;
      }
    }
  }
  if (contiguous && !primary_wal.empty()) {
    CrossCheckPrimaryWal(primary_wal, committed, &result->report);
  }
}

AuditResult RunAudit(const AuditOptions& options) {
  Status setup = Status::Ok();
  std::error_code error;
  if (!WorldSupports(options.world, options.scenario)) {
    setup = Status(StatusCode::kInvalidArgument,
                   "this world cannot express scenario '" +
                       std::string(FaultScenarioName(options.scenario)) +
                       "'");
  } else if (!options.durable_root.empty() &&
             !std::filesystem::create_directories(options.durable_root,
                                                  error) &&
             error) {
    setup = Status(StatusCode::kUnavailable,
                   "cannot create durable_root '" + options.durable_root +
                       "': " + error.message());
  }
  if (!setup.ok()) {
    AuditResult result;
    result.options = options;
    result.setup = setup;
    return result;
  }
  switch (options.world) {
    case AuditWorld::kSim:
      return RunSimAudit(options);
    case AuditWorld::kTcp:
      return RunTcpAudit(options);
    case AuditWorld::kChurn:
      return RunChurnAudit(options);
  }
  return AuditResult();
}

}  // namespace pileus::experiments
