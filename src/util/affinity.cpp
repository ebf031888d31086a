#include "util/affinity.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rfipc::util {

std::size_t allowed_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
  }
#endif
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t parallel_lanes(std::size_t items, std::size_t budget,
                           std::size_t reserved) {
  if (budget == 0) budget = allowed_cpu_count();
  const std::size_t available = budget > reserved ? budget - reserved : 1;
  const std::size_t lanes = items < available ? items : available;
  return lanes == 0 ? 1 : lanes;
}

bool pin_thread_to_core(std::thread& t, std::size_t core) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) return false;
  // The (core mod count)-th CPU of the mask, so a pinned thread stays
  // inside a restricted mask (taskset, cgroup cpuset).
  std::size_t skip = core % static_cast<std::size_t>(count);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (skip-- > 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
  }
  return false;
#else
  (void)t;
  (void)core;
  return false;
#endif
}

}  // namespace rfipc::util
