#include "common/pinning.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/topology.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace membq {

std::size_t online_cpus() noexcept {
#if defined(__linux__)
  // The cpuset-correct count: what this thread may run on, not what the
  // host has online. sched_getaffinity reflects taskset/cgroup masks.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<std::size_t>(n);
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

bool pin_current_thread(std::size_t k, PinPolicy policy) noexcept {
  if (policy == PinPolicy::kNone) return true;
#if defined(__linux__)
  // Re-read the mask every call: a caller (or its test) may have
  // restricted affinity after process start, and pinning must stay
  // inside whatever the restriction is *now*.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;

  // Topology order filtered to the live mask. The topology snapshot is
  // static hardware fact (node/core/sibling structure); the mask is
  // dynamic, so the intersection is computed fresh.
  std::vector<int> order;
  for (int cpu : topo::system().pin_order()) {
    if (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set)) {
      order.push_back(cpu);
    }
  }
  // Ascending CPU id when the allowed set holds only CPUs the startup
  // topology never saw (mask widened after start).
  if (order.empty()) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) order.push_back(cpu);
    }
  }
  if (order.empty()) return false;

  cpu_set_t target;
  CPU_ZERO(&target);
  CPU_SET(order[k % order.size()], &target);
  return pthread_setaffinity_np(pthread_self(), sizeof(target), &target) == 0;
#else
  (void)k;
  return false;
#endif
}

}  // namespace membq
