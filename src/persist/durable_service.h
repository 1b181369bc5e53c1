// Group-commit shell over a durable StorageNode.
//
// Every request is dispatched by storage::StorageNode::Handle; the node's
// durable tablets record each state change through their backend
// (DurableTablet: WAL + checkpoints) under the node's request lock. This
// class only adds when a mutation may be acknowledged.
//
// With group commit enabled, mutation acks (Put/Delete/Commit) are deferred:
// the write is applied and appended to the WAL under the node lock, but the
// reply is released only after a GroupCommitter batch fsync covers it — so
// every acked write survives a crash, at one fsync per batch instead of per
// write. The fsync itself runs outside the node lock (SyncBackends), so
// requests keep being served while it is in flight. Reads still reply
// immediately (the in-memory tablet already reflects the pending writes,
// which is exactly the sync_every_append=false memory state).

#ifndef PILEUS_SRC_PERSIST_DURABLE_SERVICE_H_
#define PILEUS_SRC_PERSIST_DURABLE_SERVICE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/persist/durable_tablet.h"
#include "src/persist/group_commit.h"
#include "src/proto/messages.h"
#include "src/storage/storage_node.h"

namespace pileus::persist {

// Group-commit settings for DurableStorageService (namespace scope so it can
// be brace-initialized at call sites).
struct GroupCommitConfig {
  bool enabled = false;
  // Ignored: the committer syncs as soon as an ack waits, and a batch is
  // whatever queued during the previous sync. Kept only so the frozen
  // perfbench/e2e_bench.cc still compiles; delete both fields at the next
  // change to the benchmark.
  size_t max_batch = 64;
  MicrosecondCount max_delay_us = 2000;
};

class DurableStorageService {
 public:
  // Serves `tablet` as `table` from a node of its own, named after the
  // table. `tablet` is not owned and must outlive the service.
  DurableStorageService(std::string table, DurableTablet* tablet)
      : DurableStorageService(std::move(table), tablet, GroupCommitConfig{}) {}
  DurableStorageService(std::string table, DurableTablet* tablet,
                        const GroupCommitConfig& group_commit);
  // Serves `node` (not owned), with its durable tablets already attached.
  DurableStorageService(storage::StorageNode* node,
                        const GroupCommitConfig& group_commit);
  ~DurableStorageService();

  // Synchronous dispatch. When group commit is on, mutations block until
  // their covering batch fsync completes.
  proto::Message Handle(const proto::Message& request);

  // Asynchronous dispatch for the event-driven transport: `done` is invoked
  // exactly once — inline for reads and errors, from the committer thread
  // for mutations under group commit. `done` must be thread-safe to call
  // from another thread and must not block for long.
  void HandleAsync(const proto::Message& request,
                   std::function<void(proto::Message)> done);

  // Forces a durability barrier covering everything applied so far.
  Status SyncNow();

  // Null when group commit is disabled.
  GroupCommitter* group_committer() { return committer_.get(); }

  uint64_t requests_served() const { return node_->requests_served(); }

 private:
  void StartGroupCommit(bool enabled);

  std::unique_ptr<storage::StorageNode> owned_node_;
  storage::StorageNode* node_;
  std::unique_ptr<GroupCommitter> committer_;
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_DURABLE_SERVICE_H_
