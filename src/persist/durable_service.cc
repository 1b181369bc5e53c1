#include "src/persist/durable_service.h"

#include <condition_variable>
#include <mutex>

#include "src/common/logging.h"

namespace pileus::persist {

namespace {

// Requests whose successful reply implies a journaled state change.
bool IsMutation(const proto::Message& request) {
  return std::holds_alternative<proto::PutRequest>(request) ||
         std::holds_alternative<proto::DeleteRequest>(request) ||
         std::holds_alternative<proto::CommitRequest>(request);
}

}  // namespace

DurableStorageService::DurableStorageService(
    std::string table, DurableTablet* tablet,
    const GroupCommitConfig& group_commit)
    : owned_node_(std::make_unique<storage::StorageNode>(
          table, "local", tablet->tablet().clock())),
      node_(owned_node_.get()) {
  if (const Status attached = node_->AttachTablet(table, tablet);
      !attached.ok()) {
    PILEUS_LOG(kError) << "attaching durable tablet of table '" << table
                       << "': " << attached;
  }
  StartGroupCommit(group_commit.enabled);
}

DurableStorageService::DurableStorageService(
    storage::StorageNode* node, const GroupCommitConfig& group_commit)
    : node_(node) {
  StartGroupCommit(group_commit.enabled);
}

void DurableStorageService::StartGroupCommit(bool enabled) {
  if (!enabled) {
    return;
  }
  // The node captures each sync's barriers under its lock, after the batch
  // was taken, and fsyncs them outside it.
  committer_ = std::make_unique<GroupCommitter>(
      [node = node_] { return node->SyncBackends(); });
  const Status status = committer_->Start();
  if (!status.ok()) {
    PILEUS_LOG(kError) << "group committer failed to start, falling back to "
                          "inline sync: "
                       << status;
  }
}

DurableStorageService::~DurableStorageService() {
  if (committer_ != nullptr) {
    committer_->Stop();
  }
}

proto::Message DurableStorageService::Handle(const proto::Message& request) {
  if (committer_ == nullptr) {
    return node_->Handle(request);
  }
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    proto::Message reply;
  };
  auto waiter = std::make_shared<Waiter>();
  HandleAsync(request, [waiter](proto::Message reply) {
    std::lock_guard<std::mutex> lock(waiter->mu);
    waiter->reply = std::move(reply);
    waiter->done = true;
    waiter->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&waiter] { return waiter->done; });
  return std::move(waiter->reply);
}

void DurableStorageService::HandleAsync(
    const proto::Message& request, std::function<void(proto::Message)> done) {
  proto::Message reply = node_->Handle(request);
  // Only successful mutations wait for the durability barrier; their WAL
  // append (made inside Handle, under the node lock) precedes the
  // registration, so the batch fsync is guaranteed to cover it.
  if (committer_ == nullptr || !IsMutation(request) ||
      std::holds_alternative<proto::ErrorReply>(reply)) {
    done(std::move(reply));
    return;
  }
  committer_->AckAfterSync(
      [reply = std::move(reply), done = std::move(done)](
          const Status& status) mutable {
        if (status.ok()) {
          done(std::move(reply));
          return;
        }
        // The write is applied in memory but its durability is unknown;
        // refuse to ack it as committed.
        proto::ErrorReply err;
        err.code = StatusCode::kUnavailable;
        err.message = "wal sync failed: " + status.message();
        done(std::move(err));
      });
}

Status DurableStorageService::SyncNow() {
  return committer_ != nullptr ? committer_->SyncNow()
                               : node_->SyncBackends();
}

}  // namespace pileus::persist
