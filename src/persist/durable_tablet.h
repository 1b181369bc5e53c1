// A tablet with crash recovery: WAL + checkpoints.
//
// DurableTablet wraps storage::Tablet so that every state change (accepted
// Put, replicated version, replication heartbeat) is journaled to a
// write-ahead log before it is acknowledged, and the whole store is
// periodically checkpointed so the log stays short. Reopening the same
// directory reconstructs the tablet exactly: contents, high timestamp, and a
// timestamp allocator that never re-issues an update timestamp.
//
// DurableTablet is the storage::TabletBackend of a durable StorageNode: the
// node routes every state change of the hosted tablet through it.
//
// Layout inside the tablet directory:
//   checkpoint.db - latest durable snapshot (atomic rename on update)
//   wal.log       - records since that snapshot
//   child-<n>/    - the tablet split off by this tablet's n-th split

#ifndef PILEUS_SRC_PERSIST_DURABLE_TABLET_H_
#define PILEUS_SRC_PERSIST_DURABLE_TABLET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/persist/wal.h"
#include "src/storage/tablet.h"
#include "src/storage/tablet_backend.h"

namespace pileus::persist {

class DurableTablet : public storage::TabletBackend {
 public:
  struct Options {
    std::string directory;  // Must exist.
    storage::Tablet::Options tablet;
    // fdatasync after every append (true = no acked write is ever lost;
    // false = group commit via the node's SyncBackends()).
    bool sync_every_append = false;
    // Auto-checkpoint once the WAL exceeds this many bytes (0 = never).
    uint64_t checkpoint_threshold_bytes = 8 * 1024 * 1024;
    // Tombstones older than this are garbage-collected at checkpoint time
    // (0 = never). Must exceed the deployment's maximum replication lag; a
    // replica that has not synced past a collected tombstone would keep the
    // stale live value forever.
    MicrosecondCount tombstone_gc_horizon_us = SecondsToMicroseconds(86400);
  };

  struct RecoveryInfo {
    uint64_t checkpoint_versions = 0;
    uint64_t wal_versions = 0;
    uint64_t wal_heartbeats = 0;
    bool wal_tail_torn = false;
    // Split records replayed from the WAL, in log order. Each shrank this
    // tablet to [begin, key); the data at or above the key lives in the next
    // `child-<n>` directory (numbered on from the children the checkpoint
    // counts), whose checkpoint was made durable before the record was
    // written. A child directory beyond the recorded splits is an ignored
    // orphan.
    std::vector<std::string> split_keys;
  };

  // Opens (or creates) the durable tablet, replaying any existing state.
  static Result<std::unique_ptr<DurableTablet>> Open(Options options,
                                                     Clock* clock);

  // --- Journaled request handlers (mirror storage::Tablet's) ---

  Result<proto::PutReply> HandlePut(std::string_view key,
                                    std::string_view value) override;
  Result<proto::PutReply> HandleDelete(std::string_view key) override;
  proto::GetReply HandleGet(std::string_view key) const {
    return tablet_->HandleGet(key);
  }
  proto::SyncReply HandleSync(const Timestamp& after,
                              uint32_t max_versions) const {
    return tablet_->HandleSync(after, max_versions);
  }
  // Applies a replication batch or heartbeat. A batch that carried versions
  // is synced before returning: a secondary has no client acks to batch its
  // fsyncs behind, so each applied pull is its own durability barrier.
  Status ApplySync(const proto::SyncReply& reply) override;
  Result<proto::CommitReply> HandleCommit(
      const proto::CommitRequest& request) override;

  // Writes a fresh snapshot (atomically) and truncates the WAL.
  Status Checkpoint() override;

  // Splits this durable tablet at `split_key` (DESIGN.md Section 14). The
  // returned child owns [split_key, end) in the next `child-<n>` directory;
  // this tablet shrinks to [begin, split_key).
  //
  // Crash ordering — no acked write is ever lost:
  //   1. The child's checkpoint (every version at or above the key, plus the
  //      parent's high timestamp) is written and fsynced into the child
  //      directory, over an emptied child WAL.
  //   2. Only then is a split record appended to the parent WAL and synced.
  // A crash before step 2 leaves the parent owning its full range and the
  // child directory an ignorable orphan (it is not in any replayed split
  // record; the next split reuses it); a crash after it recovers the parent
  // shrunk and the child complete from its own checkpoint.
  Result<std::unique_ptr<storage::TabletBackend>> Split(
      std::string_view split_key) override;

  // Reopens the `child-<n>` directory of every split recorded in the
  // checkpoint or the WAL; they inherit these options but for directory and
  // range.
  Result<std::vector<std::unique_ptr<storage::TabletBackend>>>
  OpenSplitChildren() override;

  // A barrier that fdatasyncs the WAL as it stands now. It holds the WAL's
  // file open, so a Checkpoint (truncation), Split or destruction before it
  // runs leaves it syncing the same file, never a closed or reused fd.
  SyncBarrier CaptureSync() override { return wal_.CaptureSync(); }

  storage::Tablet& tablet() override { return *tablet_; }
  const storage::Tablet& tablet() const { return *tablet_; }
  const WriteAheadLog& wal() const { return wal_; }
  const RecoveryInfo& recovery_info() const { return recovery_; }

 private:
  DurableTablet(Options options, std::unique_ptr<storage::Tablet> tablet,
                WriteAheadLog wal, RecoveryInfo recovery, size_t splits)
      : options_(std::move(options)),
        tablet_(std::move(tablet)),
        wal_(std::move(wal)),
        recovery_(std::move(recovery)),
        splits_(splits) {}

  Status MaybeAutoCheckpoint();

  std::string ChildDirectory(size_t n) const {
    return options_.directory + "/child-" + std::to_string(n);
  }
  std::string CheckpointPath() const {
    return options_.directory + "/checkpoint.db";
  }
  std::string WalPath() const { return options_.directory + "/wal.log"; }

  Options options_;
  std::unique_ptr<storage::Tablet> tablet_;
  WriteAheadLog wal_;
  RecoveryInfo recovery_;
  size_t splits_;  // Splits recorded so far; names the next child directory.
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_DURABLE_TABLET_H_
