// Spin-then-park waiting: the busy-wait hint and the wait budget every
// hot hand-off in the process shares.
//
// Parking a thread (futex, epoll_wait(-1), poll) and waking it again
// costs several microseconds, more on a virtual machine; a reply that
// arrives a few microseconds later is cheaper to catch by polling. So
// a waiter that expects a reply soon first re-polls its source with
// cpu_relax() in between for at most spin_budget(), and only then
// sleeps in the kernel. The shard workers' kBlock policy
// (runtime/shard_workers.h) counts relax rounds instead; the epoll
// reactor (server/event_loop.h) and ClassifyClient (server/client.h)
// use the time budget below.
//
// On a single allowed CPU a spinner would hold the very CPU its peer
// needs to produce the reply, so the budget is zero there: the waiter
// parks at once, exactly as if it never spun.
#pragma once

#include <atomic>
#include <chrono>

#include "util/affinity.h"

namespace rfipc::util {

/// Spin-wait hint for busy-poll loops: de-prioritizes the hyperthread
/// and saves power without giving up the core.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// The pause between two polls of a spin-then-park wait: a few hundred
/// nanoseconds of cpu_relax(), so the spinner's syscalls leave the
/// kernel locks its peer's reply has to take (socket, epoll ready
/// list) mostly free.
inline void spin_pause() {
  for (int i = 0; i < 16; ++i) cpu_relax();
}

/// How long a waiter may poll before it parks: it covers a loopback
/// round trip with the classify call inside it, and it bounds what an
/// idle waiter burns after its last event.
inline constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(50);

/// kSpinBudget, or zero when the calling thread may run on only one
/// CPU. One sched_getaffinity call: read it when a wait loop starts,
/// not per wait.
inline std::chrono::nanoseconds spin_budget() {
  return allowed_cpu_count() > 1 ? kSpinBudget : std::chrono::nanoseconds::zero();
}

}  // namespace rfipc::util
