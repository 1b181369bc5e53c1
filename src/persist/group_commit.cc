#include "src/persist/group_commit.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/telemetry/metrics.h"

namespace pileus::persist {

namespace {

struct GroupCommitMetrics {
  telemetry::Counter* syncs;
  telemetry::Counter* acks;
  telemetry::Counter* forced;
  // One sample per sync: the acks it released, and its wall time (barrier
  // capture plus fdatasync).
  telemetry::HistogramMetric* batch_acks;
  telemetry::HistogramMetric* sync_us;

  GroupCommitMetrics() {
    telemetry::MetricsRegistry& registry =
        telemetry::MetricsRegistry::Default();
    syncs = registry.GetCounter("pileus_persist_group_commit_syncs_total");
    acks = registry.GetCounter("pileus_persist_group_commit_acks_total");
    forced = registry.GetCounter("pileus_persist_group_commit_forced_total");
    batch_acks =
        registry.GetHistogram("pileus_persist_group_commit_batch_acks");
    sync_us = registry.GetHistogram("pileus_persist_wal_sync_us");
  }
};

GroupCommitMetrics& Metrics() {
  static GroupCommitMetrics* metrics = new GroupCommitMetrics();
  return *metrics;
}

}  // namespace

Status GroupCommitter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::Ok();
  }
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void GroupCommitter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  stopping_ = false;
}

void GroupCommitter::AckAfterSync(AckFn ack) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_ && !stopping_) {
      queue_.push_back(std::move(ack));
      if (queue_.size() == 1) {
        cv_.notify_one();  // Only the first ack of a batch wakes the loop.
      }
      return;
    }
  }
  // Not running: fall back to a synchronous barrier so durability is never
  // silently weakened.
  ack(sync_());
}

Status GroupCommitter::SyncNow() {
  Metrics().forced->Increment();
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  auto waiter = std::make_shared<Waiter>();
  AckAfterSync([waiter](const Status& status) {
    std::lock_guard<std::mutex> waiter_lock(waiter->mu);
    waiter->status = status;
    waiter->done = true;
    waiter->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&waiter] { return waiter->done; });
  return waiter->status;
}

void GroupCommitter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      break;  // Stopping, and every registered ack has been released.
    }
    // The batch is everything queued so far; the sync starts only after it
    // is taken, so it covers every append its acks were registered after.
    std::vector<AckFn> batch;
    batch.swap(queue_);
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    const Status status = sync_();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    syncs_.fetch_add(1, std::memory_order_relaxed);
    GroupCommitMetrics& metrics = Metrics();
    metrics.syncs->Increment();
    metrics.batch_acks->Record(static_cast<int64_t>(batch.size()));
    metrics.sync_us->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
    for (AckFn& ack : batch) {
      ack(status);
    }
    acked_.fetch_add(batch.size(), std::memory_order_relaxed);
    metrics.acks->Increment(batch.size());
    lock.lock();
  }
}

}  // namespace pileus::persist
