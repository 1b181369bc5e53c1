// The tablet-churn world (DESIGN.md Section 14).
//
// The Fig-10 GeoTestbed hosts one static whole-keyspace tablet, so it cannot
// express splits or migrations. This world is a small fleet of storage
// nodes, a TabletCoordinator owning the table's TabletMap, and a dynamic
// ShardedClient that discovers ownership changes through kWrongTablet fences
// and map refreshes. While the workload runs, the coordinator keeps
// splitting hot tablets, live-migrating ranges between nodes and executing
// rebalancer plans - optionally under a partition or a crash + WAL-restart
// of a node, and optionally with the coordinator itself killed at protocol
// crash points. The ground truth merges the per-tablet committed logs of
// each range's final primary.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/cache/client_cache.h"
#include "src/common/clock.h"
#include "src/core/sharded_client.h"
#include "src/experiments/harness.h"
#include "src/persist/wal.h"
#include "src/sim/fault_injector.h"
#include "src/storage/storage_node.h"
#include "src/tablets/coordinator.h"
#include "src/tablets/rebalancer.h"

namespace pileus::experiments {

namespace {

constexpr const char* kChurnTable = "churn";
constexpr MicrosecondCount kRttUs = MillisecondsToMicroseconds(2);
constexpr MicrosecondCount kThinkUs = MillisecondsToMicroseconds(2);
constexpr int kNodeCount = 4;
// A churn action (split / migration / rebalance round, rotating) fires
// every this many workload ops.
constexpr uint64_t kChurnPeriodOps = 40;
// A killed coordinator's standby takes over after this many workload ops.
constexpr uint64_t kCoordinatorDownOps = 30;

// One storage node "process": the node object is volatile state (destroyed
// on crash), the WAL is its disk.
struct NodeSlot {
  std::string name;
  std::unique_ptr<storage::StorageNode> node;
  persist::WriteAheadLog wal;  // Open only for kCrashRestart runs.
  bool unreachable = false;    // Partitioned away from everyone.
  bool crashed = false;
};

// Direct call into a slot's node, advancing the shared manual clock by the
// RTT. A crashed or partitioned slot answers kUnavailable after the same
// delay (the caller's timeout experience is immaterial to the audit). Acked
// writes are journaled to the slot's WAL before the ack leaves, like a
// durable server would.
class ChurnConnection : public core::NodeConnection {
 public:
  ChurnConnection(NodeSlot* slot, ManualClock* clock)
      : slot_(slot), clock_(clock) {}

  core::TimedReply Call(const proto::Message& request,
                        MicrosecondCount /*timeout*/) override {
    clock_->AdvanceMicros(kRttUs);
    if (slot_->crashed || slot_->unreachable || slot_->node == nullptr) {
      return core::TimedReply(
          Status(StatusCode::kUnavailable, "node " + slot_->name + " is down"),
          kRttUs);
    }
    proto::Message reply = slot_->node->Handle(request);
    JournalAckedWrite(request, reply);
    return core::TimedReply(std::move(reply), kRttUs);
  }

 private:
  void JournalAckedWrite(const proto::Message& request,
                         const proto::Message& reply) {
    if (!slot_->wal.is_open()) {
      return;
    }
    const auto* ack = std::get_if<proto::PutReply>(&reply);
    if (ack == nullptr) {
      return;
    }
    proto::ObjectVersion version;
    if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
      version.key = put->key;
      version.value = put->value;
    } else if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
      version.key = del->key;
      version.is_tombstone = true;
    } else {
      return;
    }
    version.timestamp = ack->timestamp;
    (void)slot_->wal.AppendVersion(version);
    (void)slot_->wal.Sync();
  }

  NodeSlot* slot_;      // Not owned; outlives the connection.
  ManualClock* clock_;  // Not owned.
};

class ChurnWorld {
 public:
  using Client = core::ShardedClient;

  ChurnWorld(const AuditOptions& options, audit::HistoryRecorder* recorder)
      : options_(options),
        recorder_(recorder),
        clock_(SecondsToMicroseconds(100)) {}

  Status Build() {
    const bool durable = options_.scenario == FaultScenario::kCrashRestart;
    if ((durable || options_.coordinator_kill) &&
        options_.durable_root.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "crash-restart / coordinator-kill churn needs a "
                    "durable_root");
    }

    slots_.reserve(kNodeCount);
    for (int i = 0; i < kNodeCount; ++i) {
      auto slot = std::make_unique<NodeSlot>();
      slot->name = "n" + std::to_string(i + 1);
      slot->node = std::make_unique<storage::StorageNode>(slot->name,
                                                          slot->name, &clock_);
      if (durable) {
        Result<persist::WriteAheadLog> wal = persist::WriteAheadLog::Open(
            options_.durable_root + "/" + slot->name + ".wal");
        PILEUS_RETURN_IF_ERROR(wal.status());
        slot->wal = std::move(wal).value();
      }
      slots_.push_back(std::move(slot));
    }

    // Two seed tablets split at the key-space midpoint, on the first two
    // nodes; churn takes it from there.
    const std::string midpoint =
        workload::YcsbWorkload::KeyForIndex(options_.key_count / 2);
    tablets::TabletMap initial;
    initial.table = kChurnTable;
    initial.version = 1;
    initial.tablets.push_back(MakeEntry(KeyRange{"", midpoint}, Slot(0).name));
    initial.tablets.push_back(MakeEntry(KeyRange{midpoint, ""}, Slot(1).name));
    for (const tablets::TabletInfo& info : initial.tablets) {
      storage::Tablet::Options tablet_options;
      tablet_options.range = info.range;
      tablet_options.is_primary = true;
      PILEUS_RETURN_IF_ERROR(
          FindSlot(info.config.primary)->node->AddTablet(kChurnTable,
                                                         tablet_options));
    }

    initial_map_ = initial;
    if (options_.coordinator_kill) {
      PILEUS_RETURN_IF_ERROR(RecoverCoordinator());
    } else {
      coordinator_ = std::make_unique<tablets::TabletCoordinator>(
          initial, &clock_, MakeCoordinatorOptions());
      for (auto& slot : slots_) {
        coordinator_->RegisterNode(slot->node.get());
      }
      PILEUS_RETURN_IF_ERROR(coordinator_->PublishMap());
    }

    tablets::Rebalancer::Options policy;
    policy.split_threshold_bytes = 2048;
    rebalancer_ = std::make_unique<tablets::Rebalancer>(policy);

    if (options_.client_cache) {
      cache::ClientCache::Options cache_options;
      cache_options.capacity_bytes = options_.cache_capacity_bytes;
      cache_ = std::make_unique<cache::ClientCache>(cache_options);
    }

    core::PileusClient::Options client_options;
    client_options.op_observer = recorder_;
    client_options.cache = cache_.get();
    client_options.seed = options_.seed;
    // Backoffs advance virtual time, like the simulator's RunFor adapter.
    client_options.sleep_fn = [this](MicrosecondCount us) {
      clock_.AdvanceMicros(us);
    };
    core::ShardedClient::DynamicOptions dynamic;
    dynamic.connect =
        [this](const std::string& name) -> std::shared_ptr<core::NodeConnection> {
      NodeSlot* slot = FindSlot(name);
      if (slot == nullptr) {
        return nullptr;
      }
      // Always connectable — a down node fails at call time, so the routing
      // table keeps the entry and ops fail fast instead of going unrouted.
      return std::make_shared<ChurnConnection>(slot, &clock_);
    };
    Result<std::unique_ptr<core::ShardedClient>> client =
        core::ShardedClient::CreateDynamic(coordinator_->map(), &clock_,
                                           client_options, std::move(dynamic));
    PILEUS_RETURN_IF_ERROR(client.status());
    client_ = std::move(client).value();
    return Status::Ok();
  }

  std::vector<Client*> frontends() { return {client_.get()}; }

  void Start() {}

  void ScheduleFaults(Random& rng, FaultSchedule* schedule) {
    const uint64_t n = options_.total_ops;
    if (options_.scenario == FaultScenario::kPartition) {
      NodeSlot* victim = &Slot(rng.NextUint64(slots_.size()));
      schedule->emplace(n * 3 / 10, [victim] { victim->unreachable = true; });
      schedule->emplace(n * 6 / 10, [this, victim] {
        victim->unreachable = false;
        if (coordinator_ != nullptr) {
          (void)coordinator_->PublishMap();  // Catch the healed node up.
        }
      });
    } else if (options_.scenario == FaultScenario::kCrashRestart) {
      // The victim is picked at crash time among the nodes that own a
      // tablet then, so the crash actually interrupts serving.
      schedule->emplace(n * 4 / 10, [this, &rng] {
        crash_victim_ = PickOwningNode(rng);
        Crash(*crash_victim_);
      });
      schedule->emplace(n * 7 / 10, [this] {
        // With the coordinator also down, defer to Finish: the restart
        // sequence needs the live map to rebuild the node's tablets.
        if (crash_victim_ != nullptr && crash_victim_->crashed &&
            coordinator_ != nullptr) {
          (void)Restart(*crash_victim_);
        }
      });
    }
    if (options_.coordinator_kill) {
      // Arm a crash point so the next churn action dies mid-phase.
      for (const uint64_t op : {n * 25 / 100, n * 55 / 100, n * 80 / 100}) {
        schedule->emplace(op, [this] {
          if (coordinator_ != nullptr) {
            injector_.ArmCrashPoint(NextKillPoint());
          }
        });
      }
    }
    for (uint64_t op = kChurnPeriodOps; op < n; op += kChurnPeriodOps) {
      schedule->emplace(op, [this, op, schedule] { ChurnStep(op, schedule); });
    }
  }

  void Think() { clock_.AdvanceMicros(kThinkUs); }

  Status Finish(AuditResult* result) {
    PILEUS_RETURN_IF_ERROR(recovery_);
    if (coordinator_ == nullptr) {
      PILEUS_RETURN_IF_ERROR(RecoverCoordinator());
    }
    HealAll();
    result->cache_served = client_->cache_serves();
    result->splits = retired_splits_ + coordinator_->splits();
    result->migrations = retired_migrations_ + coordinator_->migrations();
    result->migration_failures =
        retired_migration_failures_ + coordinator_->migration_failures();
    result->map_refreshes = client_->map_refreshes();
    result->final_tablets = coordinator_->map().tablets.size();
    result->final_map_version = coordinator_->map().version;
    result->coordinator_kills = coordinator_kills_;
    result->coordinator_recoveries = coordinator_recoveries_;
    return Status::Ok();
  }

  // Each range's committed log, exported from its final primary, merged
  // into one ascending-timestamp sequence. A key lives in exactly one tablet
  // at a time, so per-key order is exact.
  std::vector<proto::ObjectVersion> ExportGroundTruth(bool* complete) {
    std::vector<proto::ObjectVersion> truth;
    for (const tablets::TabletInfo& info : coordinator_->map().tablets) {
      NodeSlot* slot = FindSlot(info.config.primary);
      if (slot == nullptr || slot->node == nullptr) {
        *complete = false;
        continue;
      }
      storage::StorageNode* node = slot->node.get();
      const KeyRange range = info.range;
      bool contiguous = true;
      // The node's tablets may be finer than the map's range (children of a
      // split abandoned at recovery) or coarser (an unsplit copy on a healed
      // member), so union every overlapping tablet's log and keep only the
      // range's own keys.
      std::vector<proto::ObjectVersion> piece = node->WithLock(
          [&]() -> std::vector<proto::ObjectVersion> {
            std::vector<proto::ObjectVersion> merged;
            for (storage::Tablet* tablet :
                 node->TabletsForTable(kChurnTable)) {
              if (!tablet->range().Overlaps(range)) {
                continue;
              }
              bool tablet_contiguous = true;
              std::vector<proto::ObjectVersion> exported =
                  tablet->ExportCommittedVersions(&tablet_contiguous);
              contiguous = contiguous && tablet_contiguous;
              for (proto::ObjectVersion& version : exported) {
                if (range.Contains(version.key)) {
                  merged.push_back(std::move(version));
                }
              }
            }
            return merged;
          });
      *complete = *complete && contiguous;
      truth.insert(truth.end(), piece.begin(), piece.end());
    }
    std::stable_sort(truth.begin(), truth.end(),
                     [](const proto::ObjectVersion& a,
                        const proto::ObjectVersion& b) {
                       return a.timestamp < b.timestamp;
                     });
    return truth;
  }

  std::string PrimaryWalPath() const { return ""; }  // One WAL per node.

 private:
  tablets::TabletInfo MakeEntry(KeyRange range, const std::string& primary) {
    tablets::TabletInfo info;
    info.range = std::move(range);
    info.config.epoch = 1;
    info.config.primary = primary;
    info.config.members = {primary};
    return info;
  }

  NodeSlot& Slot(size_t index) { return *slots_[index]; }
  NodeSlot* FindSlot(const std::string& name) {
    for (auto& slot : slots_) {
      if (slot->name == name) {
        return slot.get();
      }
    }
    return nullptr;
  }

  tablets::TabletCoordinator::Options MakeCoordinatorOptions() {
    tablets::TabletCoordinator::Options coord_options;
    coord_options.reachable = [this](const std::string& name) {
      const NodeSlot* slot = FindSlot(name);
      return slot != nullptr && !slot->unreachable && !slot->crashed;
    };
    if (options_.coordinator_kill) {
      coord_options.intent_log_path =
          options_.durable_root + "/coordinator.intents";
      coord_options.fault_injector = &injector_;
    }
    return coord_options;
  }

  // One coordinator (re)start from the durable intent log: replay, take the
  // lease under the next epoch, finish or roll back the in-flight
  // operation, republish.
  Status RecoverCoordinator() {
    RetireCoordinator();
    Result<std::unique_ptr<tablets::TabletCoordinator>> recovered =
        tablets::TabletCoordinator::Recover(initial_map_, &clock_,
                                            MakeCoordinatorOptions());
    PILEUS_RETURN_IF_ERROR(recovered.status());
    coordinator_ = std::move(*recovered);
    for (auto& slot : slots_) {
      if (slot->node != nullptr && !slot->crashed) {
        coordinator_->RegisterNode(slot->node.get());
      }
    }
    PILEUS_RETURN_IF_ERROR(coordinator_->CompleteRecovery());
    if (coordinator_kills_ > coordinator_recoveries_) {
      ++coordinator_recoveries_;
    }
    return Status::Ok();
  }

  // The coordinator process ends; its work counts toward the run's totals.
  void RetireCoordinator() {
    if (coordinator_ == nullptr) {
      return;
    }
    retired_splits_ += coordinator_->splits();
    retired_migrations_ += coordinator_->migrations();
    retired_migration_failures_ += coordinator_->migration_failures();
    coordinator_.reset();
  }

  // The full crash-point matrix, cycled starting at a seed-dependent offset
  // so a seed sweep covers every phase boundary.
  const std::string& NextKillPoint() {
    if (kill_points_.empty()) {
      kill_points_ = tablets::TabletCoordinator::SplitCrashPoints();
      const std::vector<std::string>& migration =
          tablets::TabletCoordinator::MigrationCrashPoints();
      kill_points_.insert(kill_points_.end(), migration.begin(),
                          migration.end());
      kill_cursor_ = options_.seed % kill_points_.size();
    }
    return kill_points_[kill_cursor_++ % kill_points_.size()];
  }

  NodeSlot* PickOwningNode(Random& rng) {
    const tablets::TabletMap& map = coordinator_ != nullptr
                                        ? coordinator_->map()
                                        : client_->tablet_map();
    std::vector<std::string> owners;
    for (const tablets::TabletInfo& info : map.tablets) {
      if (std::find(owners.begin(), owners.end(), info.config.primary) ==
          owners.end()) {
        owners.push_back(info.config.primary);
      }
    }
    if (owners.empty()) {
      return &Slot(0);
    }
    NodeSlot* owner = FindSlot(owners[rng.NextUint64(owners.size())]);
    return owner != nullptr ? owner : &Slot(0);
  }

  void Crash(NodeSlot& slot) {
    // Volatile state dies with the process; the WAL is the disk. The
    // coordinator's reachability hook keeps it from touching the dead node.
    slot.crashed = true;
    slot.node.reset();
  }

  Status Restart(NodeSlot& slot) {
    slot.node =
        std::make_unique<storage::StorageNode>(slot.name, slot.name, &clock_);
    // Recreate the tablets the current map assigns this node, as plain
    // secondaries first — promotion after replay seeds each timestamp
    // allocator above everything recovered.
    for (const tablets::TabletInfo& info : coordinator_->map().tablets) {
      if (info.config.primary != slot.name) {
        continue;
      }
      storage::Tablet::Options tablet_options;
      tablet_options.range = info.range;
      tablet_options.is_primary = false;
      PILEUS_RETURN_IF_ERROR(
          slot.node->AddTablet(kChurnTable, tablet_options));
    }
    if (slot.wal.is_open()) {
      storage::StorageNode* node = slot.node.get();
      Result<persist::WriteAheadLog::ReplayStats> replayed =
          persist::WriteAheadLog::Replay(
              slot.wal.path(),
              [node](const proto::ObjectVersion& version) {
                // Keys of ranges this node no longer owns (migrated away
                // before the crash) have no tablet here: skip them. The
                // high-timestamp guard drops re-journaled duplicates from a
                // range that migrated away and back.
                storage::Tablet* tablet =
                    node->FindTablet(kChurnTable, version.key);
                if (tablet != nullptr &&
                    tablet->high_timestamp() < version.timestamp) {
                  tablet->ApplyReplicatedPut(version);
                }
              },
              [](const Timestamp&) {}, [](const reconfig::ConfigEpoch&) {});
      PILEUS_RETURN_IF_ERROR(replayed.status());
    }
    // Adopt the live map (promoting this node's primaries) and rejoin the
    // control plane; the replaced member gets a fresh TabletManager.
    slot.node->InstallTabletMap(coordinator_->map());
    slot.crashed = false;
    coordinator_->RegisterNode(slot.node.get());
    return Status::Ok();
  }

  void HealAll() {
    for (auto& slot : slots_) {
      if (slot->crashed) {
        (void)Restart(*slot);
      }
      slot->unreachable = false;
    }
    (void)coordinator_->PublishMap();
  }

  // After a successful migration the target's copy is the only one, but its
  // catch-up arrived via direct Sync pulls that bypassed the connection's
  // journaling. Persist the transferred history so a later crash of the
  // target cannot lose pre-migration acked writes.
  void JournalTabletExport(const std::string& node_name,
                           const KeyRange& range) {
    NodeSlot* slot = FindSlot(node_name);
    if (slot == nullptr || !slot->wal.is_open() || slot->node == nullptr) {
      return;
    }
    storage::StorageNode* node = slot->node.get();
    std::vector<proto::ObjectVersion> versions = node->WithLock(
        [&]() -> std::vector<proto::ObjectVersion> {
          const storage::Tablet* tablet =
              node->FindTablet(kChurnTable, range.begin);
          if (tablet == nullptr) {
            return {};
          }
          return tablet->ExportCommittedVersions(nullptr);
        });
    for (const proto::ObjectVersion& version : versions) {
      (void)slot->wal.AppendVersion(version);
    }
    (void)slot->wal.Sync();
  }

  Status Migrate(const std::string& range_begin, const std::string& to) {
    const tablets::TabletInfo* entry = nullptr;
    for (const tablets::TabletInfo& info : coordinator_->map().tablets) {
      if (info.range.begin == range_begin) {
        entry = &info;
        break;
      }
    }
    if (entry == nullptr) {
      return Status(StatusCode::kNotFound, "no tablet at " + range_begin);
    }
    const KeyRange range = entry->range;  // Copy: the call mutates the map.
    Status moved = coordinator_->ExecuteMigration(range_begin, to);
    if (moved.ok()) {
      JournalTabletExport(to, range);
    }
    return moved;
  }

  // The node with the fewest primary tablets (migration destination),
  // excluding `not_this`; empty when no reachable candidate exists.
  std::string CoolestNode(const std::string& not_this) {
    std::map<std::string, int> primaries;
    for (auto& slot : slots_) {
      if (!slot->crashed && !slot->unreachable) {
        primaries[slot->name] = 0;
      }
    }
    for (const tablets::TabletInfo& info : coordinator_->map().tablets) {
      auto it = primaries.find(info.config.primary);
      if (it != primaries.end()) {
        ++it->second;
      }
    }
    std::string best;
    int best_count = 0;
    for (const auto& [name, count] : primaries) {
      if (name == not_this) {
        continue;
      }
      if (best.empty() || count < best_count) {
        best = name;
        best_count = count;
      }
    }
    return best;
  }

  // The median key of the tablet behind `load` on its primary; nullopt when
  // that node is down or unreachable or no longer hosts the range.
  std::optional<std::string> MedianKey(const tablets::TabletLoad& load) {
    NodeSlot* slot = FindSlot(load.primary);
    if (slot == nullptr || slot->crashed || slot->unreachable) {
      return std::nullopt;
    }
    storage::StorageNode* node = slot->node.get();
    return node->WithLock([&]() -> std::optional<std::string> {
      const storage::Tablet* tablet =
          node->FindTablet(kChurnTable, load.range.begin);
      return tablet == nullptr ? std::nullopt : tablet->MedianKey();
    });
  }

  // One churn action at workload op `op`. A crash point armed by the
  // coordinator-kill schedule may fire inside it; the standby then takes
  // over kCoordinatorDownOps ops later.
  void ChurnStep(uint64_t op, FaultSchedule* schedule) {
    const int step = churn_step_++;
    if (coordinator_ == nullptr) {
      return;  // Control plane is dead; the data plane runs on.
    }
    switch (step % 3) {
      case 0: {  // Split the biggest reachable tablet at its median.
        std::vector<tablets::TabletLoad> loads = coordinator_->SampleLoads();
        std::sort(loads.begin(), loads.end(),
                  [](const tablets::TabletLoad& a,
                     const tablets::TabletLoad& b) {
                    return a.size_bytes > b.size_bytes;
                  });
        for (const tablets::TabletLoad& load : loads) {
          const std::optional<std::string> median = MedianKey(load);
          if (median.has_value() && load.range.IsSplittable(*median)) {
            (void)coordinator_->ExecuteSplit(*median);
            break;
          }
        }
        break;
      }
      case 1: {  // Migrate a round-robin tablet to the coolest node.
        const tablets::TabletMap& map = coordinator_->map();
        if (map.tablets.empty()) {
          break;
        }
        for (size_t probe = 0; probe < map.tablets.size(); ++probe) {
          const tablets::TabletInfo& info =
              map.tablets[(migrate_cursor_ + probe) % map.tablets.size()];
          NodeSlot* from = FindSlot(info.config.primary);
          if (from == nullptr || from->crashed || from->unreachable) {
            continue;
          }
          const std::string to = CoolestNode(info.config.primary);
          if (to.empty()) {
            continue;
          }
          const std::string begin = info.range.begin;
          migrate_cursor_ =
              (migrate_cursor_ + probe + 1) % map.tablets.size();
          (void)Migrate(begin, to);
          break;
        }
        break;
      }
      case 2: {  // One planner round, executed through the journaling hook.
        std::vector<tablets::TabletLoad> loads = coordinator_->SampleLoads();
        for (tablets::TabletLoad& load : loads) {
          if (load.size_bytes <=
              rebalancer_->options().split_threshold_bytes) {
            continue;
          }
          std::optional<std::string> median = MedianKey(load);
          if (median.has_value()) {
            load.split_key = *std::move(median);
          }
        }
        std::vector<std::string> nodes;
        for (auto& slot : slots_) {
          if (!slot->crashed && !slot->unreachable) {
            nodes.push_back(slot->name);
          }
        }
        for (const tablets::RebalanceAction& action :
             rebalancer_->Plan(loads, nodes)) {
          if (action.kind == tablets::RebalanceAction::Kind::kSplit) {
            (void)coordinator_->ExecuteSplit(action.split_key);
          } else {
            (void)Migrate(action.range.begin, action.to);
          }
        }
        break;
      }
    }
    if (injector_.crash_points_fired() > kills_taken_) {
      // The armed crash point fired mid-phase: the coordinator process is
      // gone. Only its intent log survives; the data plane keeps serving
      // whatever the partially-executed operation left behind.
      kills_taken_ = injector_.crash_points_fired();
      RetireCoordinator();
      ++coordinator_kills_;
      schedule->emplace(op + kCoordinatorDownOps, [this] {
        if (coordinator_ == nullptr && recovery_.ok()) {
          recovery_ = RecoverCoordinator();
        }
      });
    }
  }

  const AuditOptions& options_;
  audit::HistoryRecorder* recorder_;  // Not owned.
  ManualClock clock_;
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  std::unique_ptr<tablets::TabletCoordinator> coordinator_;
  std::unique_ptr<tablets::Rebalancer> rebalancer_;
  std::unique_ptr<cache::ClientCache> cache_;
  std::unique_ptr<core::ShardedClient> client_;
  NodeSlot* crash_victim_ = nullptr;  // kCrashRestart, once crashed.
  int churn_step_ = 0;
  size_t migrate_cursor_ = 0;
  // Control-plane work of coordinators that have been killed or replaced.
  uint64_t retired_splits_ = 0;
  uint64_t retired_migrations_ = 0;
  uint64_t retired_migration_failures_ = 0;

  // Coordinator-kill state (inert unless options_.coordinator_kill).
  sim::FaultInjector injector_;
  tablets::TabletMap initial_map_;
  std::vector<std::string> kill_points_;
  size_t kill_cursor_ = 0;
  uint64_t kills_taken_ = 0;
  uint64_t coordinator_kills_ = 0;
  uint64_t coordinator_recoveries_ = 0;
  Status recovery_ = Status::Ok();  // First failed standby recovery.
};

}  // namespace

AuditResult RunChurnAudit(const AuditOptions& options) {
  return RunInWorld<ChurnWorld>(options);
}

}  // namespace pileus::experiments
