#include "src/experiments/tcp_scenario.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/cache/client_cache.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/client.h"
#include "src/net/tcp.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/persist/wal.h"
#include "src/proto/messages.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "src/workload/ycsb.h"

namespace pileus::experiments {
namespace {

// Same table name as the simulated testbed so summaries read alike.
constexpr const char* kTable = "ycsb";
constexpr const char* kPrimaryName = "England";
constexpr const char* kSecondaryName = "US";

Result<proto::SyncReply> SyncOverTcp(net::Channel& channel,
                                     const proto::SyncRequest& request) {
  Result<proto::Message> reply =
      channel.Call(request, SecondsToMicroseconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply.value())) {
    return Status(err->code, err->message);
  }
  if (auto* sync = std::get_if<proto::SyncReply>(&reply.value())) {
    return std::move(*sync);
  }
  return Status(StatusCode::kInternal, "unexpected reply type for sync");
}

// The secondary site: the in-memory node, its client-facing server, and the
// replication pull loop — everything kCrashRestart destroys and rebuilds.
struct SecondarySite {
  std::unique_ptr<storage::StorageNode> node;
  std::unique_ptr<net::TcpChannel> pull_channel;  // To the primary.
  std::unique_ptr<replication::ReplicationAgent> agent;
  std::unique_ptr<replication::ThreadedPuller> puller;
  std::unique_ptr<net::TcpServer> server;

  ~SecondarySite() { Destroy(); }

  void Destroy() {
    if (server != nullptr) {
      server->Stop();  // In-flight pipelined calls fail fast (kUnavailable).
    }
    server.reset();
    puller.reset();  // Joins the pull thread.
    agent.reset();
    pull_channel.reset();
    node.reset();  // Volatile state gone, like a process crash.
  }
};

// Builds (or rebuilds) the secondary and starts serving on `serve_port`
// (0 = ephemeral). A rebuilt node starts empty and runs one full blocking
// catch-up pull BEFORE the server accepts, so it never serves reads while
// missing history its advertised high timestamp implies it holds.
Status BuildSecondary(uint16_t primary_port, uint16_t serve_port,
                      MicrosecondCount pull_period_us, SecondarySite* site) {
  site->node = std::make_unique<storage::StorageNode>(
      kSecondaryName, "tcp-testbed", RealClock::Instance());
  storage::Tablet::Options tablet_options;  // Not primary.
  PILEUS_RETURN_IF_ERROR(site->node->AddTablet(kTable, tablet_options));
  site->pull_channel = std::make_unique<net::TcpChannel>(primary_port);
  replication::ReplicationAgent::Options agent_options;
  agent_options.table = kTable;
  site->agent = std::make_unique<replication::ReplicationAgent>(
      site->node.get(), agent_options);
  const auto sync = [channel = site->pull_channel.get()](
                        const proto::SyncRequest& request) {
    return SyncOverTcp(*channel, request);
  };
  (void)replication::BlockingPuller(site->agent.get(), sync).PullOnce();
  site->puller = std::make_unique<replication::ThreadedPuller>(
      site->agent.get(), sync, pull_period_us);
  site->server = std::make_unique<net::TcpServer>();
  return site->server->Start(
      serve_port, [node = site->node.get()](const proto::Message& m) {
        return node->Handle(m);
      });
}

// Appends a lost-write violation for every primary-WAL entry absent from the
// exported commit order (every client write goes through the WAL here, so
// the subset relation must hold whenever the export is contiguous).
void CrossCheckWal(const std::string& path, const audit::History& history,
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
  std::set<std::tuple<std::string, int64_t, uint32_t, bool>> committed;
  for (const proto::ObjectVersion& v : history.ground_truth) {
    committed.emplace(v.key, v.timestamp.physical_us, v.timestamp.sequence,
                      v.is_tombstone);
  }
  for (const proto::ObjectVersion& v : wal.value()) {
    if (committed.count({v.key, v.timestamp.physical_us, v.timestamp.sequence,
                         v.is_tombstone}) == 0) {
      report->violations.push_back(audit::Violation{
          audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
          "primary WAL holds '" + v.key + "' at " + v.timestamp.ToString() +
              " which the update-log export lacks"});
    }
  }
}

}  // namespace

bool TcpScenarioSupports(FaultScenario scenario) {
  return scenario == FaultScenario::kNone ||
         scenario == FaultScenario::kCrashRestart ||
         scenario == FaultScenario::kHandoff;
}

ScenarioResult RunTcpAuditScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  result.seed = options.seed;
  result.scenario = options.scenario;
  Clock* clock = RealClock::Instance();

  const auto setup_failed = [&result](const std::string& what,
                                      const Status& status) {
    result.report.violations.push_back(audit::Violation{
        audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
        what + ": " + status.ToString()});
    return result;
  };

  // --- Primary: durable tablet with WAL group commit behind the async
  // server path, exactly as `pileus_server --data_dir --group_commit` runs.
  ::mkdir(options.durable_root.c_str(), 0755);  // Best effort; may exist.
  const std::string primary_dir = options.durable_root + "/primary";
  ::mkdir(primary_dir.c_str(), 0755);
  persist::DurableTablet::Options durable_options;
  durable_options.directory = primary_dir;
  durable_options.tablet.is_primary = true;
  Result<std::unique_ptr<persist::DurableTablet>> opened =
      persist::DurableTablet::Open(durable_options, clock);
  if (!opened.ok()) {
    return setup_failed("primary durable open", opened.status());
  }
  std::unique_ptr<persist::DurableTablet> durable = std::move(opened).value();
  storage::StorageNode primary(kPrimaryName, "tcp-testbed", clock);
  if (Status attached = primary.AttachTablet(kTable, durable.get());
      !attached.ok()) {
    return setup_failed("primary attach", attached);
  }
  persist::GroupCommitConfig group_commit;
  group_commit.enabled = true;
  group_commit.max_delay_us = 500;  // Wall-clock runs are short; a lone
                                    // write should not stall 2 ms per ack.
  persist::DurableStorageService primary_service(&primary, group_commit);
  net::TcpServer primary_server;
  Status status = primary_server.StartAsync(
      0, [service = &primary_service](
             const proto::Message& m,
             std::function<void(proto::Message)> done) {
        service->HandleAsync(m, std::move(done));
      });
  if (!status.ok()) {
    return setup_failed("primary listen", status);
  }

  // --- Secondary, pulled over TCP. The simulated runs replicate every few
  // virtual seconds; this run lasts fractions of a wall-clock second, so the
  // period is compressed to keep the secondary's staleness proportionate.
  const MicrosecondCount pull_period_us = std::min<MicrosecondCount>(
      options.replication_period_us, MillisecondsToMicroseconds(20));
  SecondarySite secondary;
  status =
      BuildSecondary(primary_server.port(), 0, pull_period_us, &secondary);
  if (!status.ok()) {
    return setup_failed("secondary start", status);
  }
  const uint16_t secondary_port = secondary.server->port();

  // --- Two frontends over their own sockets, one shared recorder.
  audit::HistoryRecorder recorder;
  cache::ClientCache::Options cache_options;
  cache_options.capacity_bytes = options.cache_capacity_bytes;
  cache::ClientCache us_cache(cache_options);
  cache::ClientCache india_cache(cache_options);
  const auto make_frontend = [&](cache::ClientCache* cache) {
    core::TableView view;
    view.table_name = kTable;
    view.replicas = {
        core::Replica{kPrimaryName, true,
                      std::make_shared<core::ChannelConnection>(
                          std::make_shared<net::TcpChannel>(
                              primary_server.port()),
                          clock)},
        core::Replica{kSecondaryName, false,
                      std::make_shared<core::ChannelConnection>(
                          std::make_shared<net::TcpChannel>(secondary_port),
                          clock)}};
    view.primary_index = 0;
    core::PileusClient::Options client_options;
    client_options.op_observer = &recorder;
    if (options.client_cache) {
      client_options.cache = cache;
    }
    return std::make_unique<core::PileusClient>(std::move(view), clock,
                                                client_options);
  };
  std::unique_ptr<core::PileusClient> us = make_frontend(&us_cache);
  std::unique_ptr<core::PileusClient> india = make_frontend(&india_cache);
  const std::array<core::PileusClient*, 2> frontends = {us.get(),
                                                        india.get()};

  const core::Sla sla = options.sla.value_or(AuditSla());

  // Preload through a client so every key rides the WAL'd write path.
  {
    Result<core::Session> preload = us->BeginSession(sla);
    if (preload.ok()) {
      const std::string value(100, 'p');
      for (int i = 0; i < options.key_count; ++i) {
        (void)us->Put(*preload,
                      workload::YcsbWorkload::KeyForIndex(
                          static_cast<uint64_t>(i)),
                      value);
      }
    }
  }
  secondary.puller->PullNow();
  // Both replicas need latency estimates before node selection means
  // anything (an unmeasured node reports mean 0 and wins every tie-break).
  for (core::PileusClient* fe : frontends) {
    (void)fe->ProbeNode(0);
    (void)fe->ProbeNode(1);
  }

  // Everything random derives from the one seed, as in the simulated runs.
  Random rng(options.seed);
  workload::WorkloadOptions wl;
  wl.key_count = options.key_count;
  wl.ops_per_session = options.ops_per_session;
  wl.think_time_us = 0;  // Loopback RTTs pace the run.
  wl.seed = rng.NextUint64();
  workload::YcsbWorkload workload(wl);

  const uint64_t n = std::max<uint64_t>(options.total_ops, 10);
  const uint64_t crash_at = n / 3;
  const uint64_t restart_at = 2 * n / 3;
  const int handoff_stride = std::max(2, options.ops_per_session / 2);
  constexpr uint64_t kProbeStride = 25;

  std::optional<core::Session> session;
  int frontend = 0;
  uint64_t ops_in_session = 0;

  for (uint64_t i = 0; i < options.total_ops; ++i) {
    if (options.scenario == FaultScenario::kCrashRestart) {
      if (i == crash_at) {
        secondary.Destroy();
      } else if (i == restart_at) {
        // Rebuild empty on the same port; BuildSecondary catches it up from
        // the primary before accepting. A failure leaves it down and reads
        // keep failing over to the primary for the rest of the run.
        (void)BuildSecondary(primary_server.port(), secondary_port,
                             pull_period_us, &secondary);
      }
    }
    if (i % kProbeStride == 0) {
      for (core::PileusClient* fe : frontends) {
        (void)fe->ProbeNode(0);
        (void)fe->ProbeNode(1);
      }
    }

    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      frontend = static_cast<int>(rng.NextUint64(2));
      Result<core::Session> begun = frontends[frontend]->BeginSession(sla);
      session.emplace(std::move(begun).value());
      ++result.sessions;
      ops_in_session = 0;
    } else if (options.scenario == FaultScenario::kHandoff &&
               ops_in_session % handoff_stride == 0) {
      // Serialize the session and resume it on the other frontend (a
      // different process in a real deployment, a different socket here);
      // its guarantees must keep holding across the move.
      Result<core::Session> resumed =
          core::Session::Deserialize(session->Serialize());
      if (resumed.ok()) {
        session.emplace(std::move(resumed).value());
        frontend = 1 - frontend;
        ++result.handoffs;
      }
    }

    core::PileusClient& client = *frontends[frontend];
    ++result.ops_attempted;
    ++ops_in_session;
    bool ok = true;
    if (op.is_get) {
      if (rng.NextBool(0.04)) {
        ok = client.GetRange(*session, op.key, "", 8).ok();
      } else {
        ok = client.Get(*session, op.key).ok();
      }
    } else {
      if (rng.NextBool(0.10)) {
        ok = client.Delete(*session, op.key).ok();
      } else {
        ok = client.Put(*session, op.key, op.value).ok();
      }
    }
    if (!ok) {
      ++result.ops_failed;
    }
  }

  secondary.Destroy();  // Stop pulls before freezing the ground truth.
  (void)primary_service.SyncNow();
  result.cache_served = us->cache_serves() + india->cache_serves();

  // The export sets `contiguous`, so it must run before the flag is read.
  bool contiguous = true;
  std::vector<proto::ObjectVersion> committed =
      primary.ExportTableLog(kTable, &contiguous);
  recorder.SetGroundTruth(std::move(committed), contiguous);
  result.history = recorder.Snapshot();
  result.report = audit::ConsistencyChecker().Check(result.history);
  if (contiguous) {
    CrossCheckWal(primary_dir + "/wal.log", result.history, &result.report);
  }
  primary_server.Stop();
  return result;
}

}  // namespace pileus::experiments
