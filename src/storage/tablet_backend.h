// Persistence backend for one hosted tablet (DESIGN.md Section 13).
//
// A StorageNode serves in-memory tablets directly. A tablet attached with a
// backend instead has every state change routed through it, under the
// node's request lock: accepted Puts, Deletes and Commits, applied
// replication batches and heartbeats, splits, and checkpoints. The backend
// applies the change to its tablet() and records it before returning, so a
// node needs no second dispatcher to be durable. persist::DurableTablet (WAL
// plus checkpoints) is the implementation; this interface lives here so the
// storage layer does not depend on it.

#ifndef PILEUS_SRC_STORAGE_TABLET_BACKEND_H_
#define PILEUS_SRC_STORAGE_TABLET_BACKEND_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/proto/messages.h"
#include "src/storage/tablet.h"

namespace pileus::storage {

class TabletBackend {
 public:
  virtual ~TabletBackend() = default;

  // The in-memory tablet this backend persists; the node serves it.
  virtual Tablet& tablet() = 0;

  // Mutations, mirroring Tablet's handlers: applied and recorded.
  virtual Result<proto::PutReply> HandlePut(std::string_view key,
                                            std::string_view value) = 0;
  virtual Result<proto::PutReply> HandleDelete(std::string_view key) = 0;
  virtual Result<proto::CommitReply> HandleCommit(
      const proto::CommitRequest& request) = 0;
  // A pulled replication batch, or a heartbeat-only reply.
  virtual Status ApplySync(const proto::SyncReply& reply) = 0;

  // Splits the tablet at `split_key`; the returned backend owns the upper
  // half. The child's state must be durable before this backend records
  // the split, so a crash in between loses nothing.
  virtual Result<std::unique_ptr<TabletBackend>> Split(
      std::string_view split_key) = 0;

  // Reopens the tablets split off this one by earlier runs (their own
  // split children are not included: the node asks each in turn).
  virtual Result<std::vector<std::unique_ptr<TabletBackend>>>
  OpenSplitChildren() = 0;

  // Writes a snapshot so recovery no longer replays the journal so far.
  virtual Status Checkpoint() = 0;

  // Durability barrier, split so the slow half runs without the node lock.
  // CaptureSync() is called under the lock and records what must be
  // covered; the returned barrier, run later and without the lock, makes
  // everything recorded before the capture reach stable storage. A barrier
  // must stay safe to run after the backend checkpoints, splits or is
  // destroyed.
  using SyncBarrier = std::function<Status()>;
  virtual SyncBarrier CaptureSync() = 0;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_TABLET_BACKEND_H_
