// Asynchronous replication agent.
//
// Agents are co-located with secondary tablets and periodically pull new
// versions from a source copy — normally the primary, but any fresher copy
// works because updates flow in timestamp order (paper Section 4.1-4.3).
// Each pull asks for "versions with timestamps above my high timestamp"; an
// idle primary answers with a heartbeat that still advances the secondary's
// high timestamp so clients can discover the node is up to date.
//
// The agent core is a transport-free state machine (NextRequest / OnReply) so
// the deterministic simulation can drive it with scheduled events while real
// deployments use BlockingPuller (synchronous rounds over any callable) or
// ThreadedPuller (background thread + Channel).

#ifndef PILEUS_SRC_REPLICATION_REPLICATION_AGENT_H_
#define PILEUS_SRC_REPLICATION_REPLICATION_AGENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/proto/messages.h"
#include "src/storage/tablet.h"
#include "src/telemetry/metrics.h"

namespace pileus::storage {
class StorageNode;
}  // namespace pileus::storage

namespace pileus::replication {

class ReplicationAgent {
 public:
  struct Options {
    std::string table;
    // Cap on versions per sync round trip (0 = unlimited). The update log
    // never splits a same-timestamp (transactional) batch, so the actual
    // count may slightly exceed this.
    uint32_t max_versions_per_pull = 0;
  };

  // Replicates into `target` directly; callers that share the tablet with
  // other threads synchronize (the simulator is single-threaded).
  ReplicationAgent(storage::Tablet* target, Options options)
      : target_(target), options_(std::move(options)) {}
  // Replicates `options.table` into `node`'s tablets through the node: each
  // reply is applied under its request lock, so concurrent readers never
  // see a half-applied batch, and durable tablets journal it.
  ReplicationAgent(storage::StorageNode* node, Options options)
      : node_(node), options_(std::move(options)) {}

  // The sync request to issue next: everything above the target's current
  // high timestamp.
  proto::SyncRequest NextRequest() const;

  // Applies one sync reply to the target tablet. Returns true when the source
  // indicated more data is pending (caller should issue another round).
  bool OnReply(const proto::SyncReply& reply);

  // Null for an agent that replicates through a node.
  storage::Tablet* target() { return target_; }
  const Options& options() const { return options_; }

  uint64_t pulls_completed() const { return pulls_completed_; }
  uint64_t versions_applied() const { return versions_applied_; }

  // Config piggyback from the latest sync reply (Section 6.2): the source's
  // installed epoch and that epoch's primary. Drivers use this to notice a
  // failover and re-point the pull at the new primary. 0/empty until a
  // configured source answers.
  uint64_t last_config_epoch() const { return last_config_epoch_; }
  const std::string& last_primary_hint() const { return last_primary_hint_; }

  // Registers pileus_replication_* metrics labeled with the table and the
  // given node label and feeds them on every OnReply: sync round trips,
  // versions applied, idle heartbeats, completed pulls, and a gauge holding
  // the target's high timestamp (its replication lag is the scrape time
  // minus this value). The registry is not owned and must outlive the agent.
  void EnableTelemetry(telemetry::MetricsRegistry* registry,
                       std::string_view node_label);

 private:
  struct Instruments {
    telemetry::Counter* syncs = nullptr;
    telemetry::Counter* versions = nullptr;
    telemetry::Counter* heartbeats = nullptr;
    telemetry::Counter* pulls = nullptr;
    telemetry::Gauge* high_timestamp_us = nullptr;
  };

  // The target's high timestamp: what the next pull asks above.
  Timestamp HighTimestamp() const;

  storage::Tablet* target_ = nullptr;     // Not owned.
  storage::StorageNode* node_ = nullptr;  // Not owned.
  Options options_;
  uint64_t pulls_completed_ = 0;
  uint64_t versions_applied_ = 0;
  // Newest config piggyback seen on a sync reply (monotonic in epoch).
  uint64_t last_config_epoch_ = 0;
  std::string last_primary_hint_;
  Instruments instruments_;
};

// Runs complete pull cycles (looping while the source reports has_more) over
// a synchronous sync function.
class BlockingPuller {
 public:
  using SyncFn =
      std::function<Result<proto::SyncReply>(const proto::SyncRequest&)>;

  BlockingPuller(ReplicationAgent* agent, SyncFn sync)
      : agent_(agent), sync_(std::move(sync)) {}

  // One full cycle; returns the number of versions applied.
  Result<int> PullOnce();

 private:
  ReplicationAgent* agent_;  // Not owned.
  SyncFn sync_;
};

// Background thread that pulls every `period_us` until stopped. Used by the
// real-transport examples; the simulation schedules pulls itself.
class ThreadedPuller {
 public:
  ThreadedPuller(ReplicationAgent* agent, BlockingPuller::SyncFn sync,
                 MicrosecondCount period_us);
  ~ThreadedPuller() { Stop(); }

  ThreadedPuller(const ThreadedPuller&) = delete;
  ThreadedPuller& operator=(const ThreadedPuller&) = delete;

  void Stop();

  // Wakes the puller immediately (e.g. tests that don't want to wait out the
  // period).
  void PullNow();

 private:
  void Loop();

  ReplicationAgent* agent_;  // Not owned.
  BlockingPuller puller_;
  const MicrosecondCount period_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool pull_requested_ = false;
  std::thread thread_;
};

}  // namespace pileus::replication

#endif  // PILEUS_SRC_REPLICATION_REPLICATION_AGENT_H_
