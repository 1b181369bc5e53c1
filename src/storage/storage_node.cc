#include "src/storage/storage_node.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace pileus::storage {

namespace {

proto::Message MakeError(StatusCode code, std::string message) {
  proto::ErrorReply err;
  err.code = code;
  err.message = std::move(message);
  return err;
}

proto::Message MakeError(const Status& status) {
  return MakeError(status.code(), status.message());
}

// The table a request addresses, empty for messages without one (replies,
// stats). Used to look up the installed config for reply stamping.
std::string_view TableOf(const proto::Message& request) {
  return std::visit(
      [](const auto& m) -> std::string_view {
        if constexpr (requires { m.table; }) {
          return m.table;
        } else {
          return {};
        }
      },
      request);
}

}  // namespace

StorageNode::StorageNode(std::string name, std::string site, Clock* clock)
    : name_(std::move(name)), site_(std::move(site)), clock_(clock) {}

Status StorageNode::AddTablet(std::string_view table,
                              Tablet::Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  Hosted hosted;
  hosted.owned_tablet = std::make_unique<Tablet>(std::move(options), clock_);
  hosted.tablet = hosted.owned_tablet.get();
  return HostLocked(table, std::move(hosted));
}

Status StorageNode::AttachTablet(std::string_view table,
                                 TabletBackend* backend) {
  std::lock_guard<std::mutex> lock(mu_);
  return AttachLocked(table, backend, nullptr);
}

Status StorageNode::AttachLocked(std::string_view table,
                                 TabletBackend* backend,
                                 std::unique_ptr<TabletBackend> owned) {
  Hosted hosted;
  hosted.tablet = &backend->tablet();
  hosted.backend = backend;
  hosted.owned_backend = std::move(owned);
  PILEUS_RETURN_IF_ERROR(HostLocked(table, std::move(hosted)));
  Result<std::vector<std::unique_ptr<TabletBackend>>> children =
      backend->OpenSplitChildren();
  if (!children.ok()) {
    return children.status();
  }
  for (std::unique_ptr<TabletBackend>& child : children.value()) {
    TabletBackend* raw = child.get();
    PILEUS_RETURN_IF_ERROR(AttachLocked(table, raw, std::move(child)));
  }
  return Status::Ok();
}

Status StorageNode::HostLocked(std::string_view table, Hosted hosted) {
  auto& list = tablets_[std::string(table)];
  const KeyRange& range = hosted.tablet->range();
  for (const Hosted& existing : list) {
    if (existing.tablet->range().Overlaps(range)) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet range " + range.ToString() +
                        " overlaps existing " +
                        existing.tablet->range().ToString());
    }
  }
  list.push_back(std::move(hosted));
  std::sort(list.begin(), list.end(), [](const Hosted& a, const Hosted& b) {
    return a.tablet->range().begin < b.tablet->range().begin;
  });
  RefreshTabletGaugesLocked();
  return Status::Ok();
}

void StorageNode::SetPrimaryForTable(std::string_view table, bool is_primary) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return;
  }
  for (Hosted& hosted : it->second) {
    hosted.tablet->SetPrimary(is_primary);
  }
}

void StorageNode::SetSyncReplicaForTable(std::string_view table,
                                         bool is_sync) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return;
  }
  for (Hosted& hosted : it->second) {
    hosted.tablet->SetSyncReplica(is_sync);
  }
}

void StorageNode::InstallConfig(const reconfig::ConfigEpoch& config,
                                std::string_view table,
                                MicrosecondCount lease_expiry_us) {
  std::lock_guard<std::mutex> lock(mu_);
  InstallConfigLocked(config, table, lease_expiry_us);
}

std::optional<reconfig::ConfigEpoch> StorageNode::InstalledConfig(
    std::string_view table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = configs_.find(table);
  if (it == configs_.end()) {
    return std::nullopt;
  }
  return it->second.config;
}

bool StorageNode::InstallTabletMap(const tablets::TabletMap& map) {
  std::lock_guard<std::mutex> lock(mu_);
  return InstallTabletMapLocked(map);
}

std::optional<tablets::TabletMap> StorageNode::InstalledTabletMap(
    std::string_view table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablet_maps_.find(table);
  if (it == tablet_maps_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool StorageNode::InstallTabletMapLocked(const tablets::TabletMap& map) {
  if (map.version == 0 || !map.Validate().ok()) {
    return false;
  }
  auto it = tablet_maps_.find(map.table);
  if (it != tablet_maps_.end() && map.version < it->second.version) {
    return false;  // Stale map: a fenced coordinator or delayed install.
  }
  // Coordinator-epoch fence (DESIGN.md Section 15): once a map from
  // coordinator epoch E is installed, a deposed coordinator at a lower
  // (non-legacy) epoch is refused outright — version monotonicity alone
  // cannot fence it, because both coordinators mint plausible versions.
  if (it != tablet_maps_.end() && map.coordinator_epoch != 0 &&
      map.coordinator_epoch < it->second.coordinator_epoch) {
    return false;
  }
  if (it == tablet_maps_.end()) {
    tablet_maps_.emplace(map.table, map);
  } else {
    it->second = map;
  }
  // Roles follow the map immediately, including on a same-version
  // re-install (idempotent): the migration cutover relies on the source
  // being demoted the instant it adopts the map that moves its range.
  ApplyTabletMapRolesLocked(map);
  RefreshTabletGaugesLocked();
  return true;
}

void StorageNode::ApplyTabletMapRolesLocked(const tablets::TabletMap& map) {
  auto it = tablets_.find(map.table);
  if (it == tablets_.end()) {
    return;
  }
  for (Hosted& hosted : it->second) {
    const tablets::TabletInfo* entry =
        map.OwnerOf(hosted.tablet->range().begin);
    if (entry == nullptr) {
      continue;
    }
    const bool is_primary = entry->config.primary == name_;
    hosted.tablet->SetPrimary(is_primary);
    hosted.tablet->SetSyncReplica(!is_primary &&
                                  entry->config.IsSyncMember(name_));
  }
}

std::optional<proto::Message> StorageNode::CheckTabletRoutingLocked(
    std::string_view table, std::string_view key, bool write) const {
  auto it = tablet_maps_.find(table);
  if (it == tablet_maps_.end()) {
    return std::nullopt;  // No map installed: static placement decides.
  }
  const tablets::TabletMap& map = it->second;
  const tablets::TabletInfo* entry = map.OwnerOf(key);
  if (entry == nullptr) {
    return std::nullopt;  // Map does not cover the key; fall through.
  }
  const bool member = entry->config.IsMember(name_);
  if (member && (!write || entry->config.primary == name_)) {
    return std::nullopt;
  }
  proto::ErrorReply err;
  err.code = StatusCode::kWrongTablet;
  err.message = member ? "tablet " + entry->range.ToString() +
                             " writes go to primary " + entry->config.primary
                       : "tablet " + entry->range.ToString() +
                             " is not served by node " + name_;
  err.config_epoch = entry->config.epoch;
  err.primary_hint = entry->config.primary;
  err.map_version = map.version;
  return proto::Message(std::move(err));
}

Status StorageNode::SplitTablet(std::string_view table,
                                std::string_view split_key) {
  std::lock_guard<std::mutex> lock(mu_);
  return SplitTabletLocked(table, split_key);
}

Status StorageNode::SplitTabletLocked(std::string_view table,
                                      std::string_view split_key) {
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return Status(StatusCode::kNotFound,
                  "node " + name_ + " hosts no tablets of table");
  }
  for (Hosted& hosted : it->second) {
    if (!hosted.tablet->range().Contains(split_key)) {
      continue;
    }
    // A durable tablet splits through its backend, which makes the child
    // durable before it records the split.
    Hosted upper;
    if (hosted.backend != nullptr) {
      Result<std::unique_ptr<TabletBackend>> child =
          hosted.backend->Split(split_key);
      if (!child.ok()) {
        return child.status();
      }
      upper.owned_backend = std::move(child).value();
      upper.backend = upper.owned_backend.get();
      upper.tablet = &upper.backend->tablet();
    } else {
      Result<std::unique_ptr<Tablet>> half = hosted.tablet->Split(split_key);
      if (!half.ok()) {
        return half.status();
      }
      upper.owned_tablet = std::move(half).value();
      upper.tablet = upper.owned_tablet.get();
    }
    return HostLocked(table, std::move(upper));
  }
  return Status(StatusCode::kNotFound,
                "no hosted tablet contains the split key");
}

Status StorageNode::RemoveTablet(std::string_view table,
                                 const KeyRange& range) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return Status(StatusCode::kNotFound,
                  "node " + name_ + " hosts no tablets of table");
  }
  for (auto t = it->second.begin(); t != it->second.end(); ++t) {
    if (t->tablet->range() == range) {
      it->second.erase(t);
      if (it->second.empty()) {
        tablets_.erase(it);
      }
      RefreshTabletGaugesLocked();
      return Status::Ok();
    }
  }
  return Status(StatusCode::kNotFound,
                "node " + name_ + " hosts no tablet " + range.ToString());
}

std::vector<StorageNode::LocalTabletStat> StorageNode::LocalTabletStats(
    std::string_view table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LocalTabletStat> out;
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (const Hosted& hosted : it->second) {
    const Tablet* tablet = hosted.tablet;
    LocalTabletStat stat;
    stat.range = tablet->range();
    stat.is_primary = tablet->is_primary();
    stat.is_sync_replica = tablet->is_sync_replica();
    stat.size_bytes = tablet->ApproximateBytes();
    stat.ops_total = tablet->ops_total();
    stat.high_timestamp = tablet->high_timestamp();
    out.push_back(std::move(stat));
  }
  return out;
}

proto::Message StorageNode::HandleTabletMapLocked(
    const proto::TabletMapRequest& request) {
  proto::TabletMapReply reply;
  reply.accepted =
      request.install ? InstallTabletMapLocked(request.map) : true;
  if (!request.split_key.empty()) {
    // Admin split (pileus_cli): split the hosted tablet locally. The map a
    // coordinator owns is not retiled here — standalone nodes show the new
    // tablets through the synthesized view below.
    const Status split = SplitTabletLocked(request.table, request.split_key);
    if (!split.ok()) {
      proto::ErrorReply error;
      error.code = split.code();
      error.message = split.message();
      return error;
    }
  }
  auto installed = tablet_maps_.find(request.table);
  if (installed != tablet_maps_.end()) {
    if (installed->second.version > request.have_version) {
      reply.has_map = true;
      reply.map = installed->second;
      // Refresh the advisory load stats for ranges hosted here, so the map
      // a client or the CLI fetches reflects live sizes.
      auto hosted = tablets_.find(request.table);
      if (hosted != tablets_.end()) {
        for (tablets::TabletInfo& entry : reply.map.tablets) {
          for (const Hosted& local : hosted->second) {
            if (local.tablet->range() == entry.range) {
              entry.size_bytes = local.tablet->ApproximateBytes();
            }
          }
        }
      }
    }
    return reply;
  }
  // No installed map: synthesize a display-only view (version 0) from the
  // hosted tablets so the CLI can render static deployments too. Clients
  // must not route off it (InstallTabletMap rejects version 0).
  auto hosted = tablets_.find(request.table);
  if (hosted == tablets_.end() || hosted->second.empty()) {
    return reply;
  }
  reply.has_map = true;
  reply.map.table = std::string(request.table);
  reply.map.version = 0;
  const auto config_it = configs_.find(request.table);
  for (const Hosted& local : hosted->second) {
    const Tablet* tablet = local.tablet;
    tablets::TabletInfo entry;
    entry.range = tablet->range();
    if (config_it != configs_.end()) {
      entry.config = config_it->second.config;
    } else {
      entry.config.primary = tablet->is_primary() ? name_ : "";
      entry.config.members = {name_};
    }
    entry.size_bytes = tablet->ApproximateBytes();
    entry.ops_per_sec = 0;
    reply.map.tablets.push_back(std::move(entry));
  }
  return reply;
}

void StorageNode::ApplyConfigRolesLocked(const reconfig::ConfigEpoch& config,
                                         std::string_view table) {
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return;
  }
  const bool is_primary = config.primary == name_;
  const bool is_sync = !is_primary && config.IsSyncMember(name_);
  for (Hosted& hosted : it->second) {
    hosted.tablet->SetPrimary(is_primary);
    hosted.tablet->SetSyncReplica(is_sync);
  }
}

bool StorageNode::InstallConfigLocked(const reconfig::ConfigEpoch& config,
                                      std::string_view table,
                                      MicrosecondCount lease_expiry_us) {
  if (config.epoch == 0) {
    return false;  // Epoch 0 means "unconfigured"; it is never installed.
  }
  auto it = configs_.find(table);
  if (it == configs_.end()) {
    TableConfig installed;
    installed.config = config;
    installed.lease_expiry_us = lease_expiry_us;
    configs_.emplace(std::string(table), std::move(installed));
    ApplyConfigRolesLocked(config, table);
    return true;
  }
  TableConfig& installed = it->second;
  if (config.epoch < installed.config.epoch) {
    return false;  // Stale epoch: a fenced coordinator or delayed message.
  }
  const bool epoch_advanced = config.epoch > installed.config.epoch;
  installed.config = config;
  installed.lease_expiry_us = lease_expiry_us;
  if (epoch_advanced) {
    // Roles only move with the epoch; a same-epoch re-install is a lease
    // renewal and must not disturb tablet state.
    ApplyConfigRolesLocked(config, table);
  }
  return true;
}

Status StorageNode::CheckWritableLocked(std::string_view table) const {
  auto it = configs_.find(table);
  if (it == configs_.end()) {
    return Status::Ok();  // Unconfigured: static tablet roles decide.
  }
  const TableConfig& installed = it->second;
  if (installed.config.primary != name_) {
    return Status(StatusCode::kNotPrimary,
                  "node " + name_ + " is not the primary in epoch " +
                      std::to_string(installed.config.epoch));
  }
  if (installed.lease_expiry_us != 0 &&
      clock_->NowMicros() >= installed.lease_expiry_us) {
    // The coordinator may already have promoted someone else; refusing here
    // is what makes that promotion safe (self-fencing).
    return Status(StatusCode::kNotPrimary,
                  "node " + name_ + " holds an expired lease in epoch " +
                      std::to_string(installed.config.epoch));
  }
  return Status::Ok();
}

void StorageNode::StampConfigLocked(std::string_view table,
                                    proto::Message& reply) const {
  auto it = configs_.find(table);
  if (it == configs_.end()) {
    return;
  }
  const reconfig::ConfigEpoch& config = it->second.config;
  std::visit(
      [&config](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::ErrorReply>) {
          // Only a kNotPrimary rejection carries the redirect hint; other
          // errors say nothing about placement.
          if (m.code == StatusCode::kNotPrimary) {
            m.config_epoch = config.epoch;
            m.primary_hint = config.primary;
          }
        } else if constexpr (requires { m.config_epoch; }) {
          m.config_epoch = config.epoch;
          m.primary_hint = config.primary;
        }
      },
      reply);
}

proto::Message StorageNode::HandleConfigLocked(
    const proto::ConfigRequest& request) {
  proto::ConfigReply reply;
  if (request.install) {
    const MicrosecondCount expiry =
        request.lease_duration_us == 0 ||
                request.config.primary != name_
            ? 0
            : clock_->NowMicros() + request.lease_duration_us;
    reply.accepted = InstallConfigLocked(request.config, request.table, expiry);
  } else {
    reply.accepted = true;  // A query always succeeds.
  }
  if (auto it = configs_.find(request.table); it != configs_.end()) {
    reply.config = it->second.config;
  }
  // Durable tail: the newest update timestamp across the table's tablets
  // (writes are journaled before they are acknowledged, so the in-memory
  // log tail is also the durable tail). Drives the promotion choice.
  reply.high_timestamp = Timestamp::Max();
  bool any = false;
  if (auto it = tablets_.find(request.table); it != tablets_.end()) {
    for (const Hosted& hosted : it->second) {
      any = true;
      reply.durable_timestamp = MaxTimestamp(
          reply.durable_timestamp,
          hosted.tablet->update_log().LastTimestamp());
      reply.high_timestamp =
          std::min(reply.high_timestamp, hosted.tablet->high_timestamp());
    }
  }
  if (!any) {
    reply.high_timestamp = Timestamp::Zero();
  }
  return reply;
}

StorageNode::Hosted* StorageNode::FindHostedLocked(std::string_view table,
                                                   std::string_view key) {
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return nullptr;
  }
  for (Hosted& hosted : it->second) {
    if (hosted.tablet->range().Contains(key)) {
      return &hosted;
    }
  }
  return nullptr;
}

Tablet* StorageNode::FindTablet(std::string_view table, std::string_view key) {
  Hosted* hosted = FindHostedLocked(table, key);
  return hosted == nullptr ? nullptr : hosted->tablet;
}

const Tablet* StorageNode::FindTablet(std::string_view table,
                                      std::string_view key) const {
  return const_cast<StorageNode*>(this)->FindTablet(table, key);
}

std::vector<Tablet*> StorageNode::TabletsForTable(std::string_view table) {
  std::vector<Tablet*> out;
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (Hosted& hosted : it->second) {
    out.push_back(hosted.tablet);
  }
  return out;
}

Timestamp StorageNode::HighTimestamp(std::string_view table,
                                     std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Tablet* tablet = FindTablet(table, key);
  return tablet == nullptr ? Timestamp::Zero() : tablet->high_timestamp();
}

Timestamp StorageNode::MinHighTimestamp(const std::vector<Hosted>& hosted) {
  if (hosted.empty()) {
    return Timestamp::Zero();
  }
  Timestamp high = Timestamp::Max();
  for (const Hosted& entry : hosted) {
    high = std::min(high, entry.tablet->high_timestamp());
  }
  return high;
}

Timestamp StorageNode::TableHighTimestamp(std::string_view table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  return it == tablets_.end() ? Timestamp::Zero()
                               : MinHighTimestamp(it->second);
}

Status StorageNode::ApplySync(std::string_view table,
                              const proto::SyncReply& reply) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return Status(StatusCode::kNotFound,
                  "node " + name_ + " hosts no tablets of table");
  }
  const bool whole_table = it->second.size() == 1;
  for (Hosted& hosted : it->second) {
    proto::SyncReply part;
    if (!whole_table) {
      part.heartbeat = reply.heartbeat;
      part.has_more = reply.has_more;
      for (const proto::ObjectVersion& version : reply.versions) {
        if (hosted.tablet->range().Contains(version.key)) {
          part.versions.push_back(version);
        }
      }
    }
    const proto::SyncReply& applied = whole_table ? reply : part;
    if (hosted.backend != nullptr) {
      PILEUS_RETURN_IF_ERROR(hosted.backend->ApplySync(applied));
    } else {
      hosted.tablet->ApplySync(applied);
    }
  }
  return Status::Ok();
}

TabletBackend::SyncBarrier StorageNode::CaptureBackendSync() {
  std::vector<TabletBackend::SyncBarrier> barriers;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [table, list] : tablets_) {
    for (Hosted& hosted : list) {
      if (hosted.backend != nullptr) {
        barriers.push_back(hosted.backend->CaptureSync());
      }
    }
  }
  return [barriers = std::move(barriers)] {
    for (const TabletBackend::SyncBarrier& barrier : barriers) {
      PILEUS_RETURN_IF_ERROR(barrier());
    }
    return Status::Ok();
  };
}

Status StorageNode::CheckpointBackends() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [table, list] : tablets_) {
    for (Hosted& hosted : list) {
      if (hosted.backend != nullptr) {
        PILEUS_RETURN_IF_ERROR(hosted.backend->Checkpoint());
      }
    }
  }
  return Status::Ok();
}

monitoring::NodeCondition StorageNode::SelfCondition(std::string_view table,
                                                     std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  monitoring::NodeCondition cond;
  cond.node = name_;
  auto it = tablets_.find(table);
  if (it != tablets_.end() && !it->second.empty()) {
    // Minimum high timestamp across the table's tablets, like a probe reply:
    // the conservative bound a monitor can rely on for any key.
    cond.high_timestamp = MinHighTimestamp(it->second);
    cond.high_age_us = 0;  // Measured this instant.
  }
  if (admission_ != nullptr) {
    cond.queue_delay_us =
        admission_->CurrentQueueDelay(tenant, clock_->NowMicros());
  }
  return cond;
}

std::vector<proto::ObjectVersion> StorageNode::ExportTableLog(
    std::string_view table, bool* contiguous) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool all_contiguous = true;
  std::vector<proto::ObjectVersion> merged;
  if (auto it = tablets_.find(table); it != tablets_.end()) {
    for (const Hosted& hosted : it->second) {
      bool tablet_contiguous = true;
      std::vector<proto::ObjectVersion> part =
          hosted.tablet->ExportCommittedVersions(&tablet_contiguous);
      all_contiguous = all_contiguous && tablet_contiguous;
      if (merged.empty()) {
        merged = std::move(part);
        continue;
      }
      std::vector<proto::ObjectVersion> combined;
      combined.reserve(merged.size() + part.size());
      std::merge(merged.begin(), merged.end(), part.begin(), part.end(),
                 std::back_inserter(combined),
                 [](const proto::ObjectVersion& a,
                    const proto::ObjectVersion& b) {
                   return a.timestamp < b.timestamp;
                 });
      merged = std::move(combined);
    }
  }
  if (contiguous != nullptr) {
    *contiguous = all_contiguous;
  }
  return merged;
}

void StorageNode::EnableAdmission(AdmissionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_ = std::make_unique<AdmissionController>(options);
}

void StorageNode::EnableTelemetry(telemetry::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  const auto counter = [&](std::string_view base) {
    return registry->GetCounter(
        telemetry::WithLabels(base, {{"node", name_}}));
  };
  instruments_.gets = counter("pileus_storage_gets_total");
  instruments_.puts = counter("pileus_storage_puts_total");
  instruments_.deletes = counter("pileus_storage_deletes_total");
  instruments_.ranges = counter("pileus_storage_ranges_total");
  instruments_.probes = counter("pileus_storage_probes_total");
  instruments_.syncs = counter("pileus_storage_syncs_total");
  instruments_.snapshot_gets = counter("pileus_storage_snapshot_gets_total");
  instruments_.commits = counter("pileus_storage_commits_total");
  instruments_.other = counter("pileus_storage_other_requests_total");
  instruments_.errors = counter("pileus_storage_errors_total");
  instruments_.not_primary = counter("pileus_storage_not_primary_total");
  instruments_.high_timestamp_us = registry->GetGauge(
      telemetry::WithLabels("pileus_storage_high_timestamp_us",
                            {{"node", name_}}));
  instruments_.log_size = registry->GetGauge(
      telemetry::WithLabels("pileus_storage_update_log_size", {{"node", name_}}));
  instruments_.admitted = counter("pileus_storage_admitted_total");
  instruments_.shed_reads = registry->GetCounter(telemetry::WithLabels(
      "pileus_storage_shed_total", {{"node", name_}, {"class", "read"}}));
  instruments_.shed_strong_reads = registry->GetCounter(telemetry::WithLabels(
      "pileus_storage_shed_total",
      {{"node", name_}, {"class", "strong_read"}}));
  instruments_.shed_writes = registry->GetCounter(telemetry::WithLabels(
      "pileus_storage_shed_total", {{"node", name_}, {"class", "write"}}));
  instruments_.deadline_rejected =
      counter("pileus_storage_deadline_rejected_total");
  instruments_.queue_delay_us = registry->GetHistogram(
      telemetry::WithLabels("pileus_storage_queue_delay_us",
                            {{"node", name_}}));
  instruments_.tablet_ops = counter("pileus_tablet_ops_total");
  instruments_.wrong_tablet = counter("pileus_tablet_wrong_tablet_total");
  instruments_.tablet_count = registry->GetGauge(
      telemetry::WithLabels("pileus_tablet_count", {{"node", name_}}));
  instruments_.tablet_bytes = registry->GetGauge(
      telemetry::WithLabels("pileus_tablet_bytes", {{"node", name_}}));
  RefreshTabletGaugesLocked();
}

void StorageNode::RefreshTabletGaugesLocked() {
  if (instruments_.tablet_count == nullptr) {
    return;
  }
  int64_t count = 0;
  int64_t bytes = 0;
  for (const auto& [table, list] : tablets_) {
    count += static_cast<int64_t>(list.size());
    for (const Hosted& hosted : list) {
      bytes += static_cast<int64_t>(hosted.tablet->ApproximateBytes());
    }
  }
  instruments_.tablet_count->Set(count);
  instruments_.tablet_bytes->Set(bytes);
}

void StorageNode::CountRequestLocked(const proto::Message& request,
                                     const proto::Message& reply) {
  if (instruments_.gets == nullptr) {
    return;
  }
  bool write_path = false;
  if (std::holds_alternative<proto::GetRequest>(request)) {
    instruments_.gets->Increment();
  } else if (std::holds_alternative<proto::PutRequest>(request)) {
    instruments_.puts->Increment();
    write_path = true;
  } else if (std::holds_alternative<proto::DeleteRequest>(request)) {
    instruments_.deletes->Increment();
    write_path = true;
  } else if (std::holds_alternative<proto::RangeRequest>(request)) {
    instruments_.ranges->Increment();
  } else if (std::holds_alternative<proto::ProbeRequest>(request)) {
    instruments_.probes->Increment();
  } else if (std::holds_alternative<proto::SyncRequest>(request)) {
    instruments_.syncs->Increment();
    write_path = true;
  } else if (std::holds_alternative<proto::GetAtRequest>(request)) {
    instruments_.snapshot_gets->Increment();
  } else if (std::holds_alternative<proto::CommitRequest>(request)) {
    instruments_.commits->Increment();
    write_path = true;
  } else {
    instruments_.other->Increment();
  }
  if (proto::IsDataPathRequest(request)) {
    instruments_.tablet_ops->Increment();
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply)) {
    instruments_.errors->Increment();
    if (err->code == StatusCode::kNotPrimary) {
      // Broken out separately: during a failover these are redirects, not
      // failures, and the two must be distinguishable on a dashboard.
      instruments_.not_primary->Increment();
    }
    if (err->code == StatusCode::kWrongTablet) {
      // Fences are redirects too: a burst here during a migration is
      // expected, a steady rate afterwards means stale client maps.
      instruments_.wrong_tablet->Increment();
    }
  }
  if (!write_path) {
    return;
  }
  // Refresh the gauges only after requests that can move them: the minimum
  // high timestamp across all tablets (the node's staleness bound) and the
  // total retained update-log entries.
  Timestamp high = Timestamp::Max();
  int64_t log_entries = 0;
  bool any = false;
  for (const auto& [table, list] : tablets_) {
    for (const Hosted& hosted : list) {
      any = true;
      high = std::min(high, hosted.tablet->high_timestamp());
      log_entries += static_cast<int64_t>(hosted.tablet->update_log().size());
    }
  }
  instruments_.high_timestamp_us->Set(any ? high.physical_us : 0);
  instruments_.log_size->Set(log_entries);
  RefreshTabletGaugesLocked();
}

std::optional<proto::Message> StorageNode::AdmitLocked(
    const proto::Message& request, AdmitDecision* decision) {
  AdmitClass cls;
  std::string_view tenant;
  double utility = admission_->options().utility_reference;
  MicrosecondCount deadline_us = 0;
  if (const auto* get = std::get_if<proto::GetRequest>(&request)) {
    cls = get->strong_read ? AdmitClass::kStrongRead : AdmitClass::kRead;
    tenant = get->tenant.empty() ? std::string_view(get->table) : get->tenant;
    utility = get->utility_micros / 1e6;
    deadline_us = get->deadline_us;
  } else if (const auto* range = std::get_if<proto::RangeRequest>(&request)) {
    cls = range->strong_read ? AdmitClass::kStrongRead : AdmitClass::kRead;
    tenant =
        range->tenant.empty() ? std::string_view(range->table) : range->tenant;
    utility = range->utility_micros / 1e6;
    deadline_us = range->deadline_us;
  } else if (const auto* get_at = std::get_if<proto::GetAtRequest>(&request)) {
    // Snapshot reads belong to transactions; treat them as full-utility
    // reads under the table's default bucket.
    cls = AdmitClass::kRead;
    tenant = get_at->table;
  } else if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = put->tenant.empty() ? std::string_view(put->table) : put->tenant;
    deadline_us = put->deadline_us;
  } else if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = del->table;
  } else if (const auto* commit = std::get_if<proto::CommitRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = commit->table;
  } else {
    return std::nullopt;  // Control plane: never admitted, never shed.
  }
  *decision =
      admission_->Admit(tenant, cls, utility, deadline_us, clock_->NowMicros());
  if (decision->admitted) {
    if (instruments_.admitted != nullptr) {
      instruments_.admitted->Increment();
      instruments_.queue_delay_us->Record(decision->queue_delay_us);
    }
    return std::nullopt;
  }
  if (instruments_.admitted != nullptr) {
    if (decision->deadline_exceeded) {
      instruments_.deadline_rejected->Increment();
    } else {
      switch (cls) {
        case AdmitClass::kRead:
          instruments_.shed_reads->Increment();
          break;
        case AdmitClass::kStrongRead:
          instruments_.shed_strong_reads->Increment();
          break;
        case AdmitClass::kWrite:
          instruments_.shed_writes->Increment();
          break;
      }
    }
  }
  proto::ErrorReply err;
  err.code = StatusCode::kOverloaded;
  err.retry_after_ms = decision->retry_after_ms;
  err.message = decision->deadline_exceeded
                    ? "queue delay exceeds request deadline"
                    : "node " + name_ + " shed " +
                          std::string(AdmitClassName(cls));
  return proto::Message(std::move(err));
}

void StorageNode::StampQueueDelayLocked(const proto::Message& request,
                                        const AdmitDecision& decision,
                                        proto::Message& reply) {
  if (admission_ == nullptr) {
    return;
  }
  MicrosecondCount delay = decision.queue_delay_us;
  if (const auto* probe = std::get_if<proto::ProbeRequest>(&request)) {
    // Probes bypass admission but still report pressure: monitors learn the
    // bucket's current queue delay between data-path replies.
    delay = admission_->CurrentQueueDelay(probe->table, clock_->NowMicros());
  }
  std::visit(
      [delay](auto& m) {
        if constexpr (requires { m.queue_delay_us; }) {
          m.queue_delay_us = delay;
        }
      },
      reply);
}

proto::Message StorageNode::Handle(const proto::Message& request) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  AdmitDecision decision;
  if (admission_ != nullptr) {
    if (std::optional<proto::Message> rejection =
            AdmitLocked(request, &decision)) {
      StampConfigLocked(TableOf(request), *rejection);
      CountRequestLocked(request, *rejection);
      return std::move(*rejection);
    }
  }
  proto::Message reply = HandleLocked(request);
  StampQueueDelayLocked(request, decision, reply);
  // Piggyback the installed config on everything we send back (Section 6.2):
  // clients learn about a reconfiguration from ordinary traffic.
  StampConfigLocked(TableOf(request), reply);
  CountRequestLocked(request, reply);
  return reply;
}

proto::Message StorageNode::HandleLocked(const proto::Message& request) {
  if (const auto* get = std::get_if<proto::GetRequest>(&request)) {
    if (auto fence = CheckTabletRoutingLocked(get->table, get->key,
                                              /*write=*/false)) {
      return std::move(*fence);
    }
    const Tablet* tablet = FindTablet(get->table, get->key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    return tablet->HandleGet(get->key);
  }
  if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
    if (auto fence =
            CheckTabletRoutingLocked(put->table, put->key, /*write=*/true)) {
      return std::move(*fence);
    }
    Hosted* hosted = FindHostedLocked(put->table, put->key);
    if (hosted == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    if (Status writable = CheckWritableLocked(put->table); !writable.ok()) {
      return MakeError(writable);
    }
    Result<proto::PutReply> reply =
        hosted->backend != nullptr
            ? hosted->backend->HandlePut(put->key, put->value)
            : hosted->tablet->HandlePut(put->key, put->value);
    if (!reply.ok()) {
      return MakeError(reply.status());
    }
    return std::move(reply).value();
  }
  if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
    if (auto fence =
            CheckTabletRoutingLocked(del->table, del->key, /*write=*/true)) {
      return std::move(*fence);
    }
    Hosted* hosted = FindHostedLocked(del->table, del->key);
    if (hosted == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    if (Status writable = CheckWritableLocked(del->table); !writable.ok()) {
      return MakeError(writable);
    }
    Result<proto::PutReply> reply =
        hosted->backend != nullptr ? hosted->backend->HandleDelete(del->key)
                                   : hosted->tablet->HandleDelete(del->key);
    if (!reply.ok()) {
      return MakeError(reply.status());
    }
    return std::move(reply).value();
  }
  if (const auto* range = std::get_if<proto::RangeRequest>(&request)) {
    if (auto map_it = tablet_maps_.find(range->table);
        map_it != tablet_maps_.end()) {
      // A scan is only as trustworthy as its weakest tablet: fence the whole
      // request if any overlapping range is assigned elsewhere.
      const KeyRange wanted{range->begin, range->end};
      for (const tablets::TabletInfo& entry : map_it->second.tablets) {
        if (!entry.range.Overlaps(wanted)) {
          continue;
        }
        if (!entry.config.IsMember(name_)) {
          proto::ErrorReply err;
          err.code = StatusCode::kWrongTablet;
          err.message = "tablet " + entry.range.ToString() +
                        " is not served by node " + name_;
          err.config_epoch = entry.config.epoch;
          err.primary_hint = entry.config.primary;
          err.map_version = map_it->second.version;
          return proto::Message(std::move(err));
        }
      }
    }
    auto it = tablets_.find(range->table);
    if (it == tablets_.end() || it->second.empty()) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablets of table");
    }
    // Tablets are sorted by range begin, so concatenating their per-tablet
    // scans yields global key order. The reply's high timestamp is the
    // minimum across the tablets that contributed (conservative bound).
    proto::RangeReply reply;
    reply.high_timestamp = Timestamp::Max();
    reply.served_by_primary = true;
    const KeyRange wanted{range->begin, range->end};
    for (const Hosted& hosted : it->second) {
      const Tablet* tablet = hosted.tablet;
      if (!tablet->range().Overlaps(wanted) && !wanted.IsEmpty()) {
        continue;
      }
      const uint32_t remaining =
          range->limit == 0
              ? 0
              : range->limit - static_cast<uint32_t>(reply.items.size());
      if (range->limit != 0 && remaining == 0) {
        reply.truncated = true;
        break;
      }
      proto::RangeReply part =
          tablet->HandleRange(range->begin, range->end, remaining);
      reply.high_timestamp =
          std::min(reply.high_timestamp, part.high_timestamp);
      reply.served_by_primary =
          reply.served_by_primary && part.served_by_primary;
      reply.truncated = reply.truncated || part.truncated;
      for (proto::ObjectVersion& item : part.items) {
        reply.items.push_back(std::move(item));
      }
    }
    if (reply.high_timestamp == Timestamp::Max()) {
      reply.high_timestamp = Timestamp::Zero();  // No tablet contributed.
    }
    return reply;
  }
  if (const auto* probe = std::get_if<proto::ProbeRequest>(&request)) {
    auto it = tablets_.find(probe->table);
    if (it == tablets_.end() || it->second.empty()) {
      return MakeError(StatusCode::kNotFound,
                       "node " + name_ + " hosts no tablets of table");
    }
    // Report the minimum high timestamp across the table's tablets: the
    // conservative bound a monitor can rely on for any key.
    proto::ProbeReply reply;
    reply.high_timestamp = Timestamp::Max();
    reply.is_primary = true;
    for (const Hosted& hosted : it->second) {
      const Tablet* tablet = hosted.tablet;
      const Timestamp high = tablet->authoritative()
                                 ? MaxTimestamp(tablet->high_timestamp(),
                                                Timestamp{clock_->NowMicros() - 1,
                                                          UINT32_MAX})
                                 : tablet->high_timestamp();
      reply.high_timestamp = std::min(reply.high_timestamp, high);
      reply.is_primary = reply.is_primary && tablet->authoritative();
    }
    return reply;
  }
  if (const auto* sync = std::get_if<proto::SyncRequest>(&request)) {
    auto it = tablets_.find(sync->table);
    if (it == tablets_.end() || it->second.empty()) {
      return MakeError(StatusCode::kNotFound,
                       "node " + name_ + " hosts no tablets of table");
    }
    // A pull covers the requested range, or the whole table without one.
    // Sync is control traffic and is deliberately never fenced by the
    // tablet map — the migration drain pulls from a source that is
    // already fenced. The node's tablets may be finer than the requested
    // range (split children, whether or not a map adopted them), so every
    // overlapping tablet contributes and the merged heartbeat is the
    // lowest bound any contributor guarantees complete.
    const KeyRange wanted = sync->has_range
                                ? KeyRange{sync->range_begin, sync->range_end}
                                : KeyRange::All();
    std::vector<proto::SyncReply> parts;
    for (const Hosted& hosted : it->second) {
      if (hosted.tablet->range().Overlaps(wanted)) {
        parts.push_back(
            hosted.tablet->HandleSync(sync->after, sync->max_versions));
      }
    }
    if (parts.empty()) {
      return MakeError(StatusCode::kNotFound,
                       "node " + name_ + " hosts no tablet for range");
    }
    if (parts.size() == 1) {
      return std::move(parts.front());
    }
    proto::SyncReply merged;
    Timestamp bound = parts.front().heartbeat;
    for (const proto::SyncReply& part : parts) {
      if (part.heartbeat < bound) {
        bound = part.heartbeat;
      }
      merged.has_more = merged.has_more || part.has_more;
    }
    for (proto::SyncReply& part : parts) {
      for (proto::ObjectVersion& version : part.versions) {
        if (!wanted.Contains(version.key) && !wanted.IsEmpty()) {
          continue;  // A coarser tablet may spill neighbouring keys.
        }
        if (version.timestamp <= bound) {
          merged.versions.push_back(std::move(version));
        } else {
          // Complete only up to `bound`: re-pulled next round once every
          // contributor has caught up past it.
          merged.has_more = true;
        }
      }
    }
    std::sort(merged.versions.begin(), merged.versions.end(),
              [](const proto::ObjectVersion& a,
                 const proto::ObjectVersion& b) {
                return a.timestamp < b.timestamp;
              });
    merged.heartbeat = bound;
    return merged;
  }
  if (const auto* get_at = std::get_if<proto::GetAtRequest>(&request)) {
    if (auto fence = CheckTabletRoutingLocked(get_at->table, get_at->key,
                                              /*write=*/false)) {
      return std::move(*fence);
    }
    const Tablet* tablet = FindTablet(get_at->table, get_at->key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    return tablet->HandleGetAt(get_at->key, get_at->snapshot);
  }
  if (const auto* config = std::get_if<proto::ConfigRequest>(&request)) {
    return HandleConfigLocked(*config);
  }
  if (const auto* tablet_map = std::get_if<proto::TabletMapRequest>(&request)) {
    return HandleTabletMapLocked(*tablet_map);
  }
  if (const auto* commit = std::get_if<proto::CommitRequest>(&request)) {
    if (commit->writes.empty()) {
      proto::CommitReply reply;
      reply.committed = true;
      return reply;  // Read-only transactions commit trivially.
    }
    if (auto fence = CheckTabletRoutingLocked(
            commit->table, commit->writes.front().key, /*write=*/true)) {
      return std::move(*fence);
    }
    if (Status writable = CheckWritableLocked(commit->table); !writable.ok()) {
      return MakeError(writable);
    }
    // Writes and validated reads must all land in one tablet for an atomic
    // commit; multi-tablet transactions are out of scope (as in the paper's
    // prototype).
    Hosted* hosted =
        FindHostedLocked(commit->table, commit->writes.front().key);
    if (hosted == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for commit");
    }
    const KeyRange& owned = hosted->tablet->range();
    for (const proto::ObjectVersion& w : commit->writes) {
      if (!owned.Contains(w.key)) {
        return MakeError(StatusCode::kInvalidArgument,
                         "transaction writes span tablets");
      }
    }
    for (const std::string& key : commit->read_keys) {
      if (!owned.Contains(key)) {
        return MakeError(StatusCode::kInvalidArgument,
                         "transaction reads span tablets");
      }
    }
    Result<proto::CommitReply> reply =
        hosted->backend != nullptr ? hosted->backend->HandleCommit(*commit)
                                   : hosted->tablet->HandleCommit(*commit);
    if (!reply.ok()) {
      return MakeError(reply.status());
    }
    return std::move(reply).value();
  }
  return MakeError(StatusCode::kInvalidArgument,
                   "node received a non-request message");
}

}  // namespace pileus::storage
