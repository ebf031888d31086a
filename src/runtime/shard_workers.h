// Run-to-completion workers: the fastclick/DPDK execution model for
// the sharded runtime's batch fan-out.
//
// A generic thread-pool round trip per batch — mutex-guarded task
// queue, one heap-allocated closure per task, wake, join — costs more
// than the classification itself on small machines. Instead each
// worker is a long-lived thread that owns a bounded lock-free SPSC ring
// (util/spsc_ring.h) of plain-data work descriptors, and the
// ShardedClassifier hands each worker one packet slice of a batch per
// descriptor:
//
//   dispatcher --SPSC ring--> worker 0   (walks lane 1's slice)
//              --SPSC ring--> worker 1   (walks lane 2's slice)
//              ...
//
// * Descriptors are POD (function pointer + context + lane index): no
//   futures, no std::function, no allocation on the hot path.
// * A stack-owned Completion counts outstanding descriptors; the
//   dispatcher walks its own slice (lane 0) and then waits for zero.
// * Wait policy: kBlock (default) parks idle workers on a per-worker
//   condvar after a short spin and parks the dispatcher on a shared
//   completion condvar — right for servers sharing cores (the epoll
//   reactor and ClassifyClient wait the same way, util/spin.h). kBusyPoll
//   spins with cpu_relax() on both sides — opt-in for latency benches
//   that own their cores.
// * Pinning is opt-in and best effort (util/affinity.h): worker w pins
//   to the w-th CPU of the process's affinity mask, and a refused pin
//   degrades to the portable no-pin behavior silently.
//
// SPSC discipline: each ring has exactly one consumer (its worker).
// The producer side is serialized by a per-worker dispatch mutex so
// several threads may call dispatch() concurrently (the classifier's
// public contract); with a single dispatcher — the rfipcd reactor, the
// benches — that mutex is uncontended and stays in L1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/spsc_ring.h"

namespace rfipc::runtime {

class ShardWorkerPool {
 public:
  enum class WaitPolicy : std::uint8_t {
    kBlock,     // spin briefly, then park on a condvar (default)
    kBusyPoll,  // never park; cpu_relax() until work/completion arrives
  };

  struct Options {
    std::size_t workers = 0;
    WaitPolicy wait = WaitPolicy::kBlock;
    /// Pin worker w to the w-th allowed CPU (best effort; no-op when
    /// the platform refuses).
    bool pin = false;
    /// Per-worker ring slots (rounded up to a power of two).
    std::size_t ring_capacity = 64;
  };

  /// A batch descriptor: run fn(ctx, index) on the worker thread. The
  /// classifier passes the lane whose packet slice the worker walks.
  using TaskFn = void (*)(void* ctx, std::size_t index);

  /// Stack-owned per-batch completion tracker. One dispatcher arms it
  /// via dispatch(), then blocks in wait(); it must outlive the wait.
  class Completion {
   public:
    bool done() const { return remaining_.load(std::memory_order_acquire) == 0; }

   private:
    friend class ShardWorkerPool;
    std::atomic<std::size_t> remaining_{0};
  };

  /// Per-worker observability counters (StatsSnapshot::workers).
  struct WorkerCounters {
    std::uint64_t tasks = 0;        // descriptors run to completion
    std::uint64_t ring_stalls = 0;  // dispatch retries against a full ring
    std::uint64_t parks = 0;        // times the worker went to sleep
    std::size_t ring_depth = 0;     // descriptors queued right now
  };

  explicit ShardWorkerPool(Options opts);
  /// Waits for in-flight descriptors (every armed Completion must have
  /// been wait()ed first), then joins the workers.
  ~ShardWorkerPool();

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }
  WaitPolicy wait_policy() const { return opts_.wait; }
  /// True when every requested pin was granted (false on non-Linux or
  /// when the kernel refused — the no-pin fallback is automatic).
  bool pinned() const { return pinned_; }

  /// Hands fn(ctx, index) to worker w and arms `done`. Spins (counting
  /// a ring stall) when w's ring is momentarily full — the ring bounds
  /// memory, not admission; backpressure belongs to the caller's batch
  /// sizing. `ctx` must stay valid until wait(done) returns.
  void dispatch(std::size_t w, TaskFn fn, void* ctx, std::size_t index,
                Completion& done);

  /// Blocks (per wait policy) until every descriptor armed on `done`
  /// has run. Runs no batch work itself: the dispatcher's own share of
  /// the batch should be executed between dispatch() and wait().
  void wait(Completion& done);

  std::vector<WorkerCounters> counters() const;

 private:
  struct Task {
    TaskFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t index = 0;
    Completion* done = nullptr;
  };

  /// One worker's channel. Ring indices are the SPSC synchronization;
  /// the mutex/condvar pair only implements parking for kBlock.
  struct Lane {
    explicit Lane(std::size_t ring_capacity) : ring(ring_capacity) {}
    util::SpscRing<Task> ring;
    std::mutex dispatch_mu;  // serializes concurrent producers
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<bool> parked{false};
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> ring_stalls{0};
    std::atomic<std::uint64_t> parks{0};
  };

  void worker_loop(std::size_t w);
  void complete(Task& task);

  Options opts_;
  bool pinned_ = false;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> stop_{false};
  /// Completion doorbell shared by all dispatchers (kBlock only).
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;  // last: threads see members above
};

}  // namespace rfipc::runtime
