// The TCP world: the deployment stack instead of the simulator. A durable
// primary with WAL group commit served through TcpServer::StartAsync, an
// in-memory secondary fed by a ThreadedPuller over a TcpChannel, and two
// PileusClient frontends whose replicas are real sockets on loopback. A
// transport bug (a reply matched to the wrong pipelined request, an ack
// released before its batch fsync, a stale read served after a reconnect)
// then surfaces as a consistency violation, not just a failed unit test.
//
// Time is real, so replication pulls are compressed to keep the secondary
// useful within a run that lasts fractions of a second, and loopback RTTs
// pace the ops instead of a think time.

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/cache/client_cache.h"
#include "src/common/clock.h"
#include "src/core/client.h"
#include "src/experiments/harness.h"
#include "src/net/tcp.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/proto/messages.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"

namespace pileus::experiments {
namespace {

// Same table name as the simulated testbed so summaries read alike.
constexpr const char* kTable = "ycsb";
constexpr const char* kPrimaryName = "England";
constexpr const char* kSecondaryName = "US";
constexpr MicrosecondCount kPullPeriodUs = MillisecondsToMicroseconds(20);
// Both frontends re-probe both replicas this often, in ops.
constexpr uint64_t kProbeStride = 25;

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
                      SecondarySite* site) {
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
      site->agent.get(), sync, kPullPeriodUs);
  site->server = std::make_unique<net::TcpServer>();
  return site->server->Start(
      serve_port, [node = site->node.get()](const proto::Message& m) {
        return node->Handle(m);
      });
}

class TcpWorld {
 public:
  using Client = core::PileusClient;

  TcpWorld(const AuditOptions& options, audit::HistoryRecorder* recorder)
      : options_(options),
        recorder_(recorder),
        primary_dir_(options.durable_root + "/primary") {}

  Status Build() {
    if (options_.durable_root.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "the tcp world journals its primary under durable_root, "
                    "which is empty");
    }
    Clock* clock = RealClock::Instance();
    // Primary: durable tablet with WAL group commit behind the async server
    // path, exactly as `pileus_server --data_dir --group_commit` runs.
    ::mkdir(primary_dir_.c_str(), 0755);  // Open reports a missing directory.
    persist::DurableTablet::Options durable_options;
    durable_options.directory = primary_dir_;
    durable_options.tablet.is_primary = true;
    Result<std::unique_ptr<persist::DurableTablet>> opened =
        persist::DurableTablet::Open(durable_options, clock);
    PILEUS_RETURN_IF_ERROR(opened.status());
    durable_ = std::move(opened).value();
    primary_ = std::make_unique<storage::StorageNode>(kPrimaryName,
                                                      "tcp-testbed", clock);
    PILEUS_RETURN_IF_ERROR(primary_->AttachTablet(kTable, durable_.get()));
    persist::GroupCommitConfig group_commit;
    group_commit.enabled = true;
    service_ = std::make_unique<persist::DurableStorageService>(
        primary_.get(), group_commit);
    server_ = std::make_unique<net::TcpServer>();
    PILEUS_RETURN_IF_ERROR(server_->StartAsync(
        0, [service = service_.get()](
               const proto::Message& m,
               std::function<void(proto::Message)> done) {
          service->HandleAsync(m, std::move(done));
        }));

    PILEUS_RETURN_IF_ERROR(BuildSecondary(server_->port(), 0, &secondary_));
    secondary_port_ = secondary_.server->port();

    // Two frontends over their own sockets.
    us_ = MakeFrontend(&us_cache_, clock);
    india_ = MakeFrontend(&india_cache_, clock);
    return Status::Ok();
  }

  std::vector<Client*> frontends() { return {us_.get(), india_.get()}; }

  void Start() {
    secondary_.puller->PullNow();
    // Both replicas need latency estimates before node selection means
    // anything (an unmeasured node reports mean 0 and wins every tie-break).
    Probe();
  }

  void ScheduleFaults(Random& /*rng*/, FaultSchedule* schedule) {
    const uint64_t n = std::max<uint64_t>(options_.total_ops, 10);
    if (options_.scenario == FaultScenario::kCrashRestart) {
      schedule->emplace(n / 3, [this] { secondary_.Destroy(); });
      // Rebuild empty on the same port; BuildSecondary catches it up from
      // the primary before accepting. A failure leaves it down and reads
      // keep failing over to the primary for the rest of the run.
      schedule->emplace(2 * n / 3, [this] {
        (void)BuildSecondary(server_->port(), secondary_port_, &secondary_);
      });
    }
    for (uint64_t i = 0; i < options_.total_ops; i += kProbeStride) {
      schedule->emplace(i, [this] { Probe(); });
    }
  }

  void Think() {}

  Status Finish(AuditResult* result) {
    secondary_.Destroy();  // Stop pulls before freezing the ground truth.
    (void)service_->SyncNow();
    result->cache_served = us_->cache_serves() + india_->cache_serves();
    return Status::Ok();
  }

  std::vector<proto::ObjectVersion> ExportGroundTruth(bool* contiguous) {
    return primary_->ExportTableLog(kTable, contiguous);
  }

  std::string PrimaryWalPath() const { return primary_dir_ + "/wal.log"; }

 private:
  std::unique_ptr<core::PileusClient> MakeFrontend(cache::ClientCache* cache,
                                                   Clock* clock) {
    core::TableView view;
    view.table_name = kTable;
    view.replicas = {
        core::Replica{kPrimaryName, true,
                      std::make_shared<core::ChannelConnection>(
                          std::make_shared<net::TcpChannel>(server_->port()),
                          clock)},
        core::Replica{kSecondaryName, false,
                      std::make_shared<core::ChannelConnection>(
                          std::make_shared<net::TcpChannel>(secondary_port_),
                          clock)}};
    view.primary_index = 0;
    core::PileusClient::Options client_options;
    client_options.op_observer = recorder_;
    if (options_.client_cache) {
      client_options.cache = cache;
    }
    return std::make_unique<core::PileusClient>(std::move(view), clock,
                                                client_options);
  }

  void Probe() {
    for (core::PileusClient* fe : {us_.get(), india_.get()}) {
      (void)fe->ProbeNode(0);
      (void)fe->ProbeNode(1);
    }
  }

  cache::ClientCache::Options CacheOptions() const {
    cache::ClientCache::Options cache_options;
    cache_options.capacity_bytes = options_.cache_capacity_bytes;
    return cache_options;
  }

  const AuditOptions& options_;
  audit::HistoryRecorder* recorder_;  // Not owned.
  const std::string primary_dir_;
  // Declared in start order, so they are torn down clients-first.
  std::unique_ptr<persist::DurableTablet> durable_;
  std::unique_ptr<storage::StorageNode> primary_;
  std::unique_ptr<persist::DurableStorageService> service_;
  std::unique_ptr<net::TcpServer> server_;
  SecondarySite secondary_;
  uint16_t secondary_port_ = 0;
  cache::ClientCache us_cache_{CacheOptions()};
  cache::ClientCache india_cache_{CacheOptions()};
  std::unique_ptr<core::PileusClient> us_;
  std::unique_ptr<core::PileusClient> india_;
};

}  // namespace

AuditResult RunTcpAudit(const AuditOptions& options) {
  return RunInWorld<TcpWorld>(options);
}

}  // namespace pileus::experiments
