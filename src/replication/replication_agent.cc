#include "src/replication/replication_agent.h"

#include <chrono>

#include "src/common/logging.h"
#include "src/storage/storage_node.h"

namespace pileus::replication {

Timestamp ReplicationAgent::HighTimestamp() const {
  return node_ != nullptr ? node_->TableHighTimestamp(options_.table)
                          : target_->high_timestamp();
}

proto::SyncRequest ReplicationAgent::NextRequest() const {
  proto::SyncRequest request;
  request.table = options_.table;
  request.after = HighTimestamp();
  request.max_versions = options_.max_versions_per_pull;
  return request;
}

void ReplicationAgent::EnableTelemetry(telemetry::MetricsRegistry* registry,
                                       std::string_view node_label) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  const auto counter = [&](std::string_view base) {
    return registry->GetCounter(telemetry::WithLabels(
        base, {{"table", options_.table}, {"node", node_label}}));
  };
  instruments_.syncs = counter("pileus_replication_syncs_total");
  instruments_.versions = counter("pileus_replication_versions_applied_total");
  instruments_.heartbeats = counter("pileus_replication_heartbeats_total");
  instruments_.pulls = counter("pileus_replication_pulls_total");
  instruments_.high_timestamp_us = registry->GetGauge(telemetry::WithLabels(
      "pileus_replication_high_timestamp_us",
      {{"table", options_.table}, {"node", node_label}}));
}

bool ReplicationAgent::OnReply(const proto::SyncReply& reply) {
  if (node_ == nullptr) {
    target_->ApplySync(reply);
  } else if (const Status applied = node_->ApplySync(options_.table, reply);
             !applied.ok()) {
    PILEUS_LOG(kWarning) << "applying a sync reply for table '"
                         << options_.table << "': " << applied;
  }
  versions_applied_ += reply.versions.size();
  if (reply.config_epoch > last_config_epoch_) {
    last_config_epoch_ = reply.config_epoch;
    last_primary_hint_ = reply.primary_hint;
  }
  if (!reply.has_more) {
    ++pulls_completed_;
  }
  if (instruments_.syncs != nullptr) {
    instruments_.syncs->Increment();
    if (reply.versions.empty()) {
      instruments_.heartbeats->Increment();
    } else {
      instruments_.versions->Increment(reply.versions.size());
    }
    if (!reply.has_more) {
      instruments_.pulls->Increment();
    }
    instruments_.high_timestamp_us->Set(HighTimestamp().physical_us);
  }
  return reply.has_more;
}

Result<int> BlockingPuller::PullOnce() {
  int applied = 0;
  bool more = true;
  while (more) {
    Result<proto::SyncReply> reply = sync_(agent_->NextRequest());
    if (!reply.ok()) {
      return reply.status();
    }
    applied += static_cast<int>(reply.value().versions.size());
    more = agent_->OnReply(reply.value());
  }
  return applied;
}

ThreadedPuller::ThreadedPuller(ReplicationAgent* agent,
                               BlockingPuller::SyncFn sync,
                               MicrosecondCount period_us)
    : agent_(agent), puller_(agent, std::move(sync)), period_us_(period_us) {
  thread_ = std::thread([this] { Loop(); });
}

void ThreadedPuller::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void ThreadedPuller::PullNow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pull_requested_ = true;
  }
  cv_.notify_all();
}

void ThreadedPuller::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::microseconds(period_us_), [this] {
      return stop_ || pull_requested_;
    });
    if (stop_) {
      return;
    }
    pull_requested_ = false;
    lock.unlock();
    Result<int> pulled = puller_.PullOnce();
    if (!pulled.ok()) {
      PILEUS_LOG(kWarning) << "replication pull for table '"
                           << agent_->options().table
                           << "' failed: " << pulled.status();
    }
    lock.lock();
  }
}

}  // namespace pileus::replication
