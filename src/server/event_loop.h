// A minimal single-threaded epoll reactor.
//
// Level-triggered by design: handlers may leave bytes unread or unsent
// and the next epoll_wait simply reports the fd again, which keeps the
// backpressure logic in ClassifyServer trivial (stop consuming = kernel
// socket buffers fill = TCP pushes back on the peer).
//
// Spin-then-park: after a round that dispatched at least one event,
// run() re-polls with epoll_wait(..., 0), a spin_pause() between polls,
// until util::spin_budget() (50 us) has passed since that round; only
// then does it sleep in epoll_wait(-1). A request that lands inside the
// budget skips the sleep/wake hand-off, which costs several
// microseconds on a virtual machine. It is the shard workers' kBlock
// policy, timed rather than counted. Idle cost is at most one budget
// of spin per event: the 100 ms maintenance tick alone costs ~0.05% of
// a core. The budget is read once when run() starts and is zero when
// the thread may run on only one CPU (the spinner would hold the CPU
// the peer needs). Timers, notifiers and stop() are fds in the same
// epoll set, so a spinning loop delivers them exactly as a parked one.
//
// Threading contract: add()/modify()/remove()/add_timer()/run() are
// loop-thread-only (run() adopts the calling thread). The two
// cross-thread entry points are Notifier::signal() — an eventfd the
// loop watches, safe from any thread AND from signal handlers (write(2)
// is async-signal-safe), used for SIGTERM-triggered drain and for
// update-completion wakeups — and stop(), which is signal()-backed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace rfipc::server {

/// An eventfd wrapper: signal() from any thread (or signal handler)
/// wakes the loop and runs the callback registered for it.
class Notifier {
 public:
  Notifier();
  ~Notifier();

  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  /// Wakes the owning loop. Async-signal-safe, thread-safe.
  void signal();

  int fd() const { return fd_; }
  /// Consumes pending signals (loop thread; called automatically when
  /// registered via EventLoop::add_notifier).
  void drain();

 private:
  int fd_ = -1;
};

class EventLoop {
 public:
  /// Events bitmask passed to callbacks; mirrors EPOLLIN/EPOLLOUT plus
  /// error/hangup folded into kError.
  static constexpr std::uint32_t kRead = 1u << 0;
  static constexpr std::uint32_t kWrite = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;

  using Callback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (kRead/kWrite mask). The callback may
  /// add/modify/remove any fd, including its own.
  void add(int fd, std::uint32_t events, Callback cb);
  void modify(int fd, std::uint32_t events);
  /// Deregisters; pending events for the fd in the current wait batch
  /// are dropped. Does not close the fd.
  void remove(int fd);
  bool watched(int fd) const { return handlers_.count(fd) != 0; }

  /// Registers a periodic timerfd firing every `interval`; returns the
  /// timer fd (remove() + close() to cancel).
  int add_timer(std::chrono::milliseconds interval, std::function<void()> cb);

  /// Watches `n` and runs `cb` (after draining it) whenever signalled.
  void add_notifier(Notifier& n, std::function<void()> cb);

  /// Dispatches events until stop(), spinning up to one spin budget
  /// after each dispatch round before it parks. Must be called from
  /// one thread.
  void run();
  /// Ends run() from any thread after the current dispatch round.
  void stop();
  bool stopping() const { return stop_requested_.load(std::memory_order_acquire); }

 private:
  int epoll_fd_ = -1;
  std::unordered_map<int, Callback> handlers_;
  /// Fds removed while dispatching the current epoll_wait batch; their
  /// remaining events are dropped (level-triggering re-reports anything
  /// still actionable for a reused fd number).
  std::vector<int> removed_in_batch_;
  bool in_dispatch_ = false;
  std::unique_ptr<Notifier> stop_notifier_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace rfipc::server
