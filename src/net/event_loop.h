// Epoll-based reactor (DESIGN.md "Async transport & group commit").
//
// An EventLoop owns one epoll instance serviced by one background thread.
// File descriptors register a callback that fires with the ready event mask;
// any thread may hand the loop work with RunInLoop (executed promptly on the
// loop thread, in FIFO order) or RunAfter (executed once a delay elapses —
// the transport uses this for CallAsync deadlines; a synchronous
// TcpChannel::Call enforces its own and arms no timer). An EventLoopPool
// spreads connections across N loops round-robin so one process scales past
// a single reactor thread without per-connection threads.
//
// Threading rules kept deliberately small:
//  - Register/Modify/Unregister and RunInLoop/RunAfter are thread-safe.
//  - Callbacks always run on the loop thread, never concurrently with each
//    other on the same loop.
//  - Unregistering an fd guarantees no *new* dispatches; a dispatch already
//    in flight may still run, so callback owners keep themselves alive via
//    shared_ptr captures and re-check their own state.

#ifndef PILEUS_SRC_NET_EVENT_LOOP_H_
#define PILEUS_SRC_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/net/socket_util.h"

namespace pileus::net {

class EventLoop {
 public:
  // Receives the ready epoll event mask (EPOLLIN | EPOLLOUT | EPOLLERR...).
  using FdCallback = std::function<void(uint32_t)>;

  EventLoop() = default;
  ~EventLoop() { Stop(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll/wakeup fds and spawns the loop thread.
  Status Start();

  // Stops and joins the loop thread; queued tasks that have not run are
  // dropped. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool InLoopThread() const {
    return thread_.get_id() == std::this_thread::get_id();
  }

  // Queues `fn` to run on the loop thread as soon as possible. After Stop()
  // the task is silently dropped (shutdown races are the caller's design
  // problem; see the header comment).
  void RunInLoop(std::function<void()> fn);

  // Runs `fn` on the loop thread once `delay_us` has elapsed (0 = next
  // iteration). Timers cannot be cancelled: make `fn` a no-op instead. The
  // timer is held in the loop's heap until it fires, so a caller that can
  // enforce a deadline itself (TcpChannel::Call does) should not arm one.
  void RunAfter(MicrosecondCount delay_us, std::function<void()> fn);

  // Watches `fd` for `events` (level-triggered). The callback is held until
  // UnregisterFd.
  Status RegisterFd(int fd, uint32_t events, FdCallback callback);
  Status ModifyFd(int fd, uint32_t events);
  void UnregisterFd(int fd);

 private:
  struct Timer {
    MicrosecondCount due_us;
    uint64_t seq;  // Tie-break so equal deadlines run FIFO.
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      return due_us != other.due_us ? due_us > other.due_us : seq > other.seq;
    }
  };

  void Loop();
  void Wakeup();
  // Runs every due timer and every queued task; returns the epoll timeout
  // (us) until the next timer, or -1 for "no timer pending".
  MicrosecondCount DrainTasksAndTimers();

  UniqueFd epoll_fd_;
  UniqueFd wakeup_fd_;  // eventfd poked by RunInLoop/RunAfter/Stop.
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::unordered_map<int, std::shared_ptr<FdCallback>> callbacks_;
  std::vector<std::function<void()>> pending_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t timer_seq_ = 0;
};

// N started loops handed out round-robin.
class EventLoopPool {
 public:
  explicit EventLoopPool(int loops);
  ~EventLoopPool() { Stop(); }

  EventLoopPool(const EventLoopPool&) = delete;
  EventLoopPool& operator=(const EventLoopPool&) = delete;

  Status Start();
  void Stop();

  EventLoop* Next();
  int size() const { return static_cast<int>(loops_.size()); }
  EventLoop* loop(int i) { return loops_[static_cast<size_t>(i)].get(); }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<uint64_t> next_{0};
};

// Process-wide client-side pool shared by every TcpChannel (two loops,
// started on first use, never stopped — the threads park in epoll_wait and
// the pool object stays reachable so leak checkers are quiet).
EventLoopPool& SharedClientLoops();

}  // namespace pileus::net

#endif  // PILEUS_SRC_NET_EVENT_LOOP_H_
