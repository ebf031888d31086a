#include "runtime/shard_workers.h"

#include <chrono>

#include "util/affinity.h"

namespace rfipc::runtime {
namespace {

/// Spins this many cpu_relax() rounds before a kBlock worker parks or
/// a kBlock dispatcher falls back to the condvar: long enough to cover
/// the next batch arriving back-to-back, short enough not to burn a
/// shared core.
constexpr std::uint32_t kSpinRounds = 2048;

/// Parked waits re-check on a timeout so a (theoretical) missed
/// doorbell costs one tick, never a hang.
constexpr std::chrono::milliseconds kParkTick{1};

}  // namespace

ShardWorkerPool::ShardWorkerPool(Options opts) : opts_(opts) {
  lanes_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w) {
    lanes_.push_back(std::make_unique<Lane>(opts_.ring_capacity));
  }
  workers_.reserve(opts_.workers);
  pinned_ = opts_.pin && opts_.workers > 0;
  for (std::size_t w = 0; w < opts_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
    if (opts_.pin) {
      pinned_ = util::pin_thread_to_core(workers_.back(), w) && pinned_;
    }
  }
}

ShardWorkerPool::~ShardWorkerPool() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->park_mu);
    lane->park_cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

void ShardWorkerPool::dispatch(std::size_t w, TaskFn fn, void* ctx,
                               std::size_t index, Completion& done) {
  Lane& lane = *lanes_[w];
  done.remaining_.fetch_add(1, std::memory_order_relaxed);
  Task task{fn, ctx, index, &done};
  {
    std::lock_guard<std::mutex> lock(lane.dispatch_mu);
    std::uint32_t spins = 0;
    while (!lane.ring.try_push(task)) {
      // Full ring: the worker is behind by a whole ring of batches.
      // Bounded memory matters more than this dispatcher's latency —
      // spin until a slot frees (counted once, so stalls are visible).
      // Past the spin budget, yield: if the worker shares this core
      // (more lanes than cores), relaxing alone would burn the whole
      // timeslice the worker needs to drain a slot.
      if (spins++ == 0) lane.ring_stalls.fetch_add(1, std::memory_order_relaxed);
      if (spins < kSpinRounds) {
        util::cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
  // Doorbell. Taking park_mu makes the hand-off race-free by mutex
  // ordering alone (no fences — GCC's TSan can't model them): either
  // this critical section runs BEFORE the worker's park sequence, in
  // which case the worker's under-lock ring re-check happens-after our
  // unlock and sees the pushed task, or the worker already parked and
  // its parked=true store is visible under the lock, so we notify.
  if (opts_.wait != WaitPolicy::kBusyPoll) {
    std::lock_guard<std::mutex> lock(lane.park_mu);
    if (lane.parked.load(std::memory_order_relaxed)) lane.park_cv.notify_one();
  }
}

void ShardWorkerPool::complete(Task& task) {
  // Last access to *task.done: once remaining_ hits zero the
  // dispatcher may return from wait() and destroy the Completion.
  if (task.done->remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      opts_.wait != WaitPolicy::kBusyPoll) {
    { std::lock_guard<std::mutex> lock(done_mu_); }
    done_cv_.notify_all();
  }
}

void ShardWorkerPool::wait(Completion& done) {
  for (std::uint32_t spin = 0; !done.done(); ++spin) {
    if (spin < kSpinRounds) {
      util::cpu_relax();
    } else if (opts_.wait == WaitPolicy::kBusyPoll) {
      // Busy-poll never sleeps, but past the spin budget the workers
      // have clearly not been scheduled — cede the core so they can be
      // (a no-op when every lane owns its core, the intended setup).
      std::this_thread::yield();
    } else {
      std::unique_lock<std::mutex> lock(done_mu_);
      done_cv_.wait_for(lock, kParkTick, [&done] { return done.done(); });
    }
  }
}

void ShardWorkerPool::worker_loop(std::size_t w) {
  Lane& lane = *lanes_[w];
  std::uint32_t idle = 0;
  while (true) {
    Task task;
    if (lane.ring.try_pop(task)) {
      idle = 0;
      task.fn(task.ctx, task.index);
      lane.tasks.fetch_add(1, std::memory_order_relaxed);
      complete(task);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (++idle < kSpinRounds) {
      util::cpu_relax();
      continue;
    }
    if (opts_.wait == WaitPolicy::kBusyPoll) {
      std::this_thread::yield();  // same oversubscription valve as wait()
      continue;
    }
    // Park: set the flag and re-check the ring UNDER park_mu, which
    // pairs with the doorbell's critical section in dispatch() — a
    // racing dispatch either ran first (its push is visible to this
    // re-check) or runs after (it sees parked=true and notifies).
    std::unique_lock<std::mutex> lock(lane.park_mu);
    lane.parked.store(true, std::memory_order_relaxed);
    if (lane.ring.empty() && !stop_.load(std::memory_order_acquire)) {
      lane.parks.fetch_add(1, std::memory_order_relaxed);
      lane.park_cv.wait_for(lock, kParkTick);
    }
    lane.parked.store(false, std::memory_order_relaxed);
    idle = 0;
  }
}

std::vector<ShardWorkerPool::WorkerCounters> ShardWorkerPool::counters() const {
  std::vector<WorkerCounters> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    WorkerCounters c;
    c.tasks = lane->tasks.load(std::memory_order_relaxed);
    c.ring_stalls = lane->ring_stalls.load(std::memory_order_relaxed);
    c.parks = lane->parks.load(std::memory_order_relaxed);
    c.ring_depth = lane->ring.size();
    out.push_back(c);
  }
  return out;
}

}  // namespace rfipc::runtime
