// WAL group commit: many concurrent writers share one fsync.
//
// The durable write path appends to the WAL under the node lock, then
// registers an ack with the GroupCommitter instead of fsyncing inline. A
// background committer thread wakes on the first queued ack, takes the whole
// queue as one batch, runs one Sync() for it at once and then releases every
// ack in it. Acks that arrive while that sync runs form the next batch, so
// batches grow with contention and a lone writer never waits on a timer
// (PostgreSQL's commit_delay defaults to 0 for the same reason). Because
// each ack is registered only AFTER its append reached the kernel, and the
// committer's sync starts after it takes the batch, every acked write is on
// stable storage: the zero-lost-acked-writes invariant of sync_every_append
// is preserved at a fraction of the fsync count.
//
// A write that was appended but whose batch had not synced at crash time is
// simply never acked — the client sees an unavailable/timeout and the replay
// may or may not contain the write, both acceptable outcomes.

#ifndef PILEUS_SRC_PERSIST_GROUP_COMMIT_H_
#define PILEUS_SRC_PERSIST_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace pileus::persist {

class GroupCommitter {
 public:
  // Performs the actual durability barrier (e.g. StorageNode::SyncBackends).
  // Runs on the committer thread, after the batch it covers was taken.
  using SyncFn = std::function<Status()>;
  // Receives the outcome of the covering sync. Runs on the committer thread;
  // must not call back into the committer.
  using AckFn = std::function<void(const Status&)>;

  explicit GroupCommitter(SyncFn sync) : sync_(std::move(sync)) {}
  ~GroupCommitter() { Stop(); }

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // Spawns the committer thread.
  Status Start();

  // Syncs and releases any remaining acks, then joins the thread. Idempotent.
  void Stop();

  // Registers `ack` to run after the next completed sync. The write being
  // acked must already be appended (happens-before this call). If the
  // committer is not running, syncs inline and acks immediately.
  void AckAfterSync(AckFn ack);

  // Queues a waiter like any other ack and blocks until its sync completes
  // (replication pulls use this to cover an applied batch).
  Status SyncNow();

  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t acked() const { return acked_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  const SyncFn sync_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stopping_ = false;
  std::vector<AckFn> queue_;

  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> acked_{0};
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_GROUP_COMMIT_H_
