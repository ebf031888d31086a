#include "util/affinity.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rfipc::util {

std::size_t hardware_core_count() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t allowed_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
  }
#endif
  return hardware_core_count();
}

std::size_t parallel_lanes(std::size_t items, std::size_t budget,
                           std::size_t reserved) {
  if (budget == 0) budget = hardware_core_count();
  const std::size_t available = budget > reserved ? budget - reserved : 1;
  const std::size_t lanes = items < available ? items : available;
  return lanes == 0 ? 1 : lanes;
}

bool pin_thread_to_core(std::thread& t, std::size_t core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % hardware_core_count(), &set);
  return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
#else
  (void)t;
  (void)core;
  return false;
#endif
}

}  // namespace rfipc::util
