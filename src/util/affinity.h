// Core-budget and CPU-affinity helpers for the run-to-completion
// execution model.
//
// Every thread the process runs — reactor, update waiter, shard
// workers, benchmark drivers — should be derived from ONE core budget
// so co-resident subsystems cannot silently oversubscribe a small
// machine (the 1-core CI box turns oversubscription into a 4x
// slowdown; see EXPERIMENTS.md). allowed_cpu_count() is the one core
// count and the default budget: it reads the affinity mask, so taskset
// or a cgroup cpuset shrinks the budget where hardware_concurrency()
// would not. parallel_lanes() turns (budget, reserved, work items) into
// the number of lanes that may actually run concurrently, clamped to
// at least one so a starved budget degrades to serial rather than
// failing.
//
// Pinning is best effort: pin_thread_to_core() uses
// pthread_setaffinity_np where available and reports false (without
// failing the caller) everywhere else, so the portable no-pin fallback
// is automatic.
#pragma once

#include <cstddef>
#include <thread>

namespace rfipc::util {

/// CPUs the calling thread's affinity mask allows (sched_getaffinity;
/// threads inherit the mask of the thread that created them), or
/// std::thread::hardware_concurrency() where the platform has no such
/// mask. Never below one.
std::size_t allowed_cpu_count();

/// How many lanes of `items` work a subsystem may run concurrently:
/// min(items, budget - reserved), clamped to >= 1. `budget` == 0 means
/// allowed_cpu_count(); `reserved` counts co-resident threads
/// (reactor, waiters) already spending cores.
std::size_t parallel_lanes(std::size_t items, std::size_t budget,
                           std::size_t reserved);

/// Best-effort: pins `t` to the `core`-th CPU (mod allowed_cpu_count())
/// of the calling thread's affinity mask. Returns false when
/// unsupported on this platform or refused by the kernel — callers
/// must treat pinning as an optimization only.
bool pin_thread_to_core(std::thread& t, std::size_t core);

}  // namespace rfipc::util
