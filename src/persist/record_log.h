// Low-level durable record log: the framing/recovery layer shared by the
// tablet WAL (src/persist/wal.h) and the coordinator intent log
// (src/tablets/intent_log.h).
//
// On-disk record format (little-endian), identical to the historical WAL
// layout so existing logs replay unchanged:
//   1 byte  kind        (meaning assigned by the typed layer on top)
//   4 bytes payload len
//   4 bytes CRC-32 of payload
//   N bytes payload
//
// Recovery semantics: a torn tail (partial record at EOF — the normal
// result of a crash mid-append) is detected and discarded; a CRC mismatch,
// an unknown kind, or an absurd length *before* the tail is reported as
// kCorruption so operators notice real damage rather than silently losing
// committed data.
//
// Crash points: a log can be armed with a sim::FaultInjector and a name
// prefix; Sync() then fires "<prefix>after_sync" after a successful
// fdatasync, returning kAborted as if the process died the instant its
// record became durable. The torture harness (DESIGN.md Section 15) uses
// this to prove recovery handles a crash at the durability boundary itself.
//
// Sync in two steps: CaptureSync() takes a barrier under whatever lock
// orders the appends, and running the barrier does the fdatasync later,
// without that lock. The barrier shares ownership of the open file, so a
// Close(), Reset() or move of the log in between never leaves it syncing a
// closed or reused fd.

#ifndef PILEUS_SRC_PERSIST_RECORD_LOG_H_
#define PILEUS_SRC_PERSIST_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/sim/fault_injector.h"

namespace pileus::persist {

class RecordLog {
 public:
  // Sanity bound on a single record payload.
  static constexpr uint32_t kMaxPayload = 256 * 1024 * 1024;

  RecordLog() = default;
  ~RecordLog() { Close(); }

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;
  RecordLog(RecordLog&& other) noexcept { *this = std::move(other); }
  RecordLog& operator=(RecordLog&& other) noexcept;

  // Opens (creating if needed) the log at `path` for appending.
  static Result<RecordLog> Open(const std::string& path);

  bool is_open() const { return file_ != nullptr; }

  // Appends one record; data reaches the kernel but is not fsynced until
  // Sync() (group-commit friendly).
  Status Append(uint8_t kind, std::string_view payload);

  // fdatasync the log. Fires the "<prefix>after_sync" crash point (see
  // SetCrashPoints) once the data is durable.
  Status Sync() { return CaptureSync()(); }

  // A barrier that Sync()s everything appended so far when run, possibly
  // after this log has moved on, been reset or been closed. Capturing a
  // closed log yields a barrier that fails with kInternal.
  std::function<Status()> CaptureSync() const;

  // Truncates the log to empty (after a successful checkpoint).
  Status Reset();

  void Close();

  // Arms cooperative crash points named "<prefix>..." against `injector`
  // (not owned; null disarms).
  void SetCrashPoints(sim::FaultInjector* injector, std::string prefix) {
    fault_injector_ = injector;
    crash_prefix_ = std::move(prefix);
  }

  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  struct ReplayStats {
    uint64_t records = 0;
    // A partial record at EOF was discarded (normal after a crash).
    bool tail_torn = false;
  };

  // Streams every intact record through `on_record`; a non-OK return from
  // the callback aborts the replay with that status. `valid_kind` (if
  // given) classifies unknown kinds as corruption, mirroring the CRC rule:
  // garbage before the tail must be loud. A missing file is an empty log.
  static Result<ReplayStats> Replay(
      const std::string& path,
      const std::function<Status(uint8_t kind, std::string_view payload)>&
          on_record,
      const std::function<bool(uint8_t kind)>& valid_kind = nullptr);

 private:
  // The open file; barriers share it, and the fd closes with the last owner.
  struct File {
    File(int open_fd, std::string file_path)
        : fd(open_fd), path(std::move(file_path)) {}
    ~File();
    const int fd;
    const std::string path;
  };

  std::string path_;
  std::shared_ptr<const File> file_;
  uint64_t bytes_written_ = 0;
  sim::FaultInjector* fault_injector_ = nullptr;  // Not owned.
  std::string crash_prefix_;
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_RECORD_LOG_H_
