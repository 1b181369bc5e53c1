// A storage node: hosts tablets for any number of tables and serves the
// storage protocol. Nodes know nothing about consistency guarantees or SLAs
// (paper Section 4.1) — all of that lives in the client library.
//
// Thread safety: a single mutex serializes request handling, so the same node
// object can sit behind the threaded in-process transport, the TCP server, or
// be called directly from the single-threaded simulation.
//
// Durability is per tablet: a tablet attached with a TabletBackend (e.g.
// persist::DurableTablet) has every state change recorded by its backend
// under that same mutex, so one dispatcher serves in-memory and durable
// storage alike. Only the fsync of a group-commit barrier (SyncBackends)
// runs outside it.

#ifndef PILEUS_SRC_STORAGE_STORAGE_NODE_H_
#define PILEUS_SRC_STORAGE_STORAGE_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/proto/messages.h"
#include "src/reconfig/config_epoch.h"
#include "src/storage/admission.h"
#include "src/storage/tablet.h"
#include "src/storage/tablet_backend.h"
#include "src/tablets/tablet_map.h"
#include "src/telemetry/metrics.h"
#include "src/util/key_range.h"

namespace pileus::storage {

class StorageNode {
 public:
  // `name` identifies the node in monitor state and logs; `site` names its
  // datacenter in the latency model.
  StorageNode(std::string name, std::string site, Clock* clock);

  const std::string& name() const { return name_; }
  const std::string& site() const { return site_; }

  // Registers a tablet. Ranges of one table must not overlap on one node.
  Status AddTablet(std::string_view table, Tablet::Options options);

  // Hosts `backend`'s tablet (the backend is not owned and must outlive the
  // node), then the split children the backend recorded in earlier runs,
  // recursively; the node owns those. Ranges must not overlap.
  Status AttachTablet(std::string_view table, TabletBackend* backend);

  // Role changes for the whole table on this node (Section 6.2
  // reconfiguration and Section 6.4 sync replicas).
  void SetPrimaryForTable(std::string_view table, bool is_primary);
  void SetSyncReplicaForTable(std::string_view table, bool is_sync);

  // Installs `config` for its table (normally done via a ConfigRequest; this
  // entry point serves recovery, which replays WAL config records before the
  // transport exists). Stale epochs are ignored. A `lease_expiry_us` of 0
  // means the primary role never self-fences; recovery passes an expiry in
  // the past so a restarted ex-primary stays fenced until re-leased.
  void InstallConfig(const reconfig::ConfigEpoch& config,
                     std::string_view table,
                     MicrosecondCount lease_expiry_us = 0);

  // The installed config for `table` (nullopt when unconfigured). Epoch 0
  // never occurs here: installs of epoch-0 configs are rejected.
  std::optional<reconfig::ConfigEpoch> InstalledConfig(
      std::string_view table) const;

  // --- Dynamic tablets (DESIGN.md Section 14) ---

  // Installs a tablet map version-monotonically (also reachable via a
  // TabletMapRequest with install=true). Adopting a map applies the
  // per-tablet roles it implies to hosted tablets — the migration cutover
  // demotes/fences the source and promotes the target through exactly this
  // path — and turns on kWrongTablet fencing: data-path requests for ranges
  // the map assigns elsewhere are rejected with the owner as a hint.
  // Returns false for version-0, invalid, or stale maps.
  bool InstallTabletMap(const tablets::TabletMap& map);

  // The installed tablet map (nullopt when none was ever installed).
  std::optional<tablets::TabletMap> InstalledTabletMap(
      std::string_view table) const;

  // Splits the hosted tablet containing `split_key` in two at that key.
  // Purely local: the caller (coordinator) owns publishing the new map.
  Status SplitTablet(std::string_view table, std::string_view split_key);

  // Removes the hosted tablet with exactly this range (migration source
  // cleanup after the handoff drained).
  Status RemoveTablet(std::string_view table, const KeyRange& range);

  // Per-tablet load snapshot for the rebalancer and the CLI.
  struct LocalTabletStat {
    KeyRange range;
    bool is_primary = false;
    bool is_sync_replica = false;
    uint64_t size_bytes = 0;
    uint64_t ops_total = 0;  // Cumulative; the sampler turns this into ops/s.
    Timestamp high_timestamp;
  };
  std::vector<LocalTabletStat> LocalTabletStats(std::string_view table) const;

  // Generic dispatch: takes any request message, returns the matching reply
  // (or ErrorReply). This is what transports invoke.
  proto::Message Handle(const proto::Message& request);

  // Direct accessors used by replication agents and tests. The returned
  // tablet pointer is stable for the node's lifetime but callers must
  // synchronize through Handle()/WithTablet() in threaded settings.
  Tablet* FindTablet(std::string_view table, std::string_view key);
  const Tablet* FindTablet(std::string_view table, std::string_view key) const;
  std::vector<Tablet*> TabletsForTable(std::string_view table);

  // Runs `fn` under the node's request lock (threaded deployments).
  template <typename Fn>
  auto WithLock(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return fn();
  }

  // High timestamp of the tablet owning `key` (Zero if absent); convenience
  // for tests and monitors.
  Timestamp HighTimestamp(std::string_view table, std::string_view key) const;

  // The minimum high timestamp across `table`'s tablets (Zero if none):
  // every version at or below it is present on this node.
  Timestamp TableHighTimestamp(std::string_view table) const;

  // Secondary side of replication, under the request lock: applies a pulled
  // SyncReply for the whole table, each tablet taking the versions in its
  // range and the heartbeat. Durable tablets record it through their
  // backend.
  Status ApplySync(std::string_view table, const proto::SyncReply& reply);

  // Durability barrier over every attached backend (group commit); a no-op
  // for in-memory tablets. Covers everything recorded before the call.
  Status SyncBackends() { return CaptureBackendSync()(); }
  // The same barrier in two steps: the capture takes each backend's barrier
  // under the request lock; running the result fsyncs without it, so
  // requests are served while the disk syncs.
  TabletBackend::SyncBarrier CaptureBackendSync();
  // Checkpoints every attached backend (clean shutdown).
  Status CheckpointBackends();

  // Audit ground truth (DESIGN.md "Consistency auditing"): the committed
  // versions across `table`'s tablets, merged into one ascending-timestamp
  // sequence. Taken from the primary, this is the authoritative commit order
  // histories are checked against. `contiguous` (when non-null) is set to
  // false when any tablet's log was compacted, i.e. old committed writes are
  // missing from the export.
  std::vector<proto::ObjectVersion> ExportTableLog(
      std::string_view table, bool* contiguous = nullptr) const;

  // Total Gets/Puts served; used by benches to report message costs.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Registers pileus_storage_* metrics labeled with this node's name and
  // feeds them on every Handle(): per-op served counters, an error counter,
  // and gauges for the node's minimum high timestamp and total update-log
  // size (refreshed after write-path requests). The registry is not owned
  // and must outlive the node.
  void EnableTelemetry(telemetry::MetricsRegistry* registry);

  // Puts every subsequent data-path request through per-tenant admission
  // control (DESIGN.md Section 11). Control traffic — probes, sync pulls,
  // config installs, stats — bypasses admission so monitoring and
  // replication keep working while the node sheds load. Call again with
  // different options to replace the controller (buckets reset).
  void EnableAdmission(AdmissionOptions options);

  // The active controller (nullptr when admission was never enabled).
  AdmissionController* admission() { return admission_.get(); }

  // This node's own condition report for the shared-monitoring aggregator
  // (DESIGN.md Section 12): high timestamp (minimum across `table`'s
  // tablets, age 0 — it is measured right now) and the current admission
  // queue delay of `tenant`'s bucket. sample_count stays 0: a node cannot
  // measure its own round-trip latency, so the digest carries no latency
  // evidence from self-reports. Returns an empty condition (node name only)
  // when the node hosts no tablets of `table`.
  monitoring::NodeCondition SelfCondition(std::string_view table,
                                          std::string_view tenant = {});

 private:
  struct TableConfig {
    reconfig::ConfigEpoch config;
    // Virtual-clock instant past which this node, when it is the config's
    // primary, stops accepting writes (lease fencing, Section 6.2).
    // 0 = no lease.
    MicrosecondCount lease_expiry_us = 0;
  };

  // One hosted tablet. In-memory tablets are owned here; a durable tablet
  // belongs to its backend, which the node owns only for split children.
  struct Hosted {
    Tablet* tablet = nullptr;
    TabletBackend* backend = nullptr;  // Null: in-memory only.
    std::unique_ptr<Tablet> owned_tablet;
    std::unique_ptr<TabletBackend> owned_backend;
  };

  // Adds `hosted` to `table`'s tablets, kept sorted by range begin.
  Status HostLocked(std::string_view table, Hosted hosted);
  Status AttachLocked(std::string_view table, TabletBackend* backend,
                      std::unique_ptr<TabletBackend> owned);
  Hosted* FindHostedLocked(std::string_view table, std::string_view key);
  static Timestamp MinHighTimestamp(const std::vector<Hosted>& hosted);

  proto::Message HandleLocked(const proto::Message& request);
  proto::Message HandleConfigLocked(const proto::ConfigRequest& request);
  proto::Message HandleTabletMapLocked(const proto::TabletMapRequest& request);
  Status SplitTabletLocked(std::string_view table, std::string_view split_key);
  bool InstallTabletMapLocked(const tablets::TabletMap& map);
  // Applies the roles the map assigns this node to hosted tablets whose
  // range matches a map entry (primary iff named primary, sync replica iff
  // listed; a non-member is demoted outright).
  void ApplyTabletMapRolesLocked(const tablets::TabletMap& map);
  // The kWrongTablet fence: non-null when the installed tablet map assigns
  // `key`'s range to other nodes (or, for writes, to another primary). The
  // rejection carries the owning primary and the map version as hints.
  std::optional<proto::Message> CheckTabletRoutingLocked(
      std::string_view table, std::string_view key, bool write) const;
  // Applies tablet roles implied by `config` (primary iff named primary,
  // sync replica iff listed and not primary). Called when an install raises
  // the epoch.
  void ApplyConfigRolesLocked(const reconfig::ConfigEpoch& config,
                              std::string_view table);
  bool InstallConfigLocked(const reconfig::ConfigEpoch& config,
                           std::string_view table,
                           MicrosecondCount lease_expiry_us);
  // Non-ok when a write for `table` must be rejected: this node is not the
  // installed config's primary, or its lease has expired (fenced). Both map
  // to kNotPrimary so clients redirect instead of giving up.
  Status CheckWritableLocked(std::string_view table) const;
  // Stamps the reply's config_epoch/primary_hint fields (data-path replies
  // and errors) from the table's installed config; no-op when unconfigured.
  void StampConfigLocked(std::string_view table, proto::Message& reply) const;
  // Counts `request`/`reply` into the telemetry counters; no-op when
  // EnableTelemetry was never called. Called with mu_ held.
  void CountRequestLocked(const proto::Message& request,
                          const proto::Message& reply);
  // Runs `request` through the admission controller. Returns the rejection
  // reply when the request was shed, nullopt when it was admitted (with the
  // measured queue delay in `*decision`) or is control traffic.
  std::optional<proto::Message> AdmitLocked(const proto::Message& request,
                                            AdmitDecision* decision);
  // Stamps the reply's queue_delay_us field: the admission decision's delay
  // on data-path replies, the bucket's current delay on probe replies.
  void StampQueueDelayLocked(const proto::Message& request,
                             const AdmitDecision& decision,
                             proto::Message& reply);

  struct Instruments {
    telemetry::Counter* gets = nullptr;
    telemetry::Counter* puts = nullptr;
    telemetry::Counter* deletes = nullptr;
    telemetry::Counter* ranges = nullptr;
    telemetry::Counter* probes = nullptr;
    telemetry::Counter* syncs = nullptr;
    telemetry::Counter* snapshot_gets = nullptr;
    telemetry::Counter* commits = nullptr;
    telemetry::Counter* other = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* not_primary = nullptr;
    telemetry::Gauge* high_timestamp_us = nullptr;
    telemetry::Gauge* log_size = nullptr;
    // Overload-control instruments (DESIGN.md Section 11).
    telemetry::Counter* admitted = nullptr;
    telemetry::Counter* shed_reads = nullptr;
    telemetry::Counter* shed_strong_reads = nullptr;
    telemetry::Counter* shed_writes = nullptr;
    telemetry::Counter* deadline_rejected = nullptr;
    telemetry::HistogramMetric* queue_delay_us = nullptr;
    // Dynamic-tablet instruments (DESIGN.md Section 14).
    telemetry::Counter* tablet_ops = nullptr;
    telemetry::Counter* wrong_tablet = nullptr;
    telemetry::Gauge* tablet_count = nullptr;
    telemetry::Gauge* tablet_bytes = nullptr;
  };

  // Refreshes the tablet count/bytes gauges; no-op without telemetry.
  void RefreshTabletGaugesLocked();

  std::string name_;
  std::string site_;
  Clock* clock_;  // Not owned.
  mutable std::mutex mu_;
  // table name -> tablets sorted by range begin.
  std::map<std::string, std::vector<Hosted>, std::less<>> tablets_;
  // table name -> installed configuration (absent until the first install).
  std::map<std::string, TableConfig, std::less<>> configs_;
  // table name -> installed tablet map (absent until the first install).
  std::map<std::string, tablets::TabletMap, std::less<>> tablet_maps_;
  std::atomic<uint64_t> requests_served_{0};
  Instruments instruments_;
  std::unique_ptr<AdmissionController> admission_;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_STORAGE_NODE_H_
