// Cpuset-correct thread pinning over the discovered topology.
//
// Both entry points honor the *current* affinity mask, re-read per call:
// `online_cpus()` counts the CPUs this thread may run on (sched_getaffinity,
// not _SC_NPROCESSORS_ONLN — under `taskset -c 0` on an 8-CPU host the
// two differ by 8x and pinning to `cpu % 8` targets disallowed CPUs), and
// `pin_current_thread(k)` pins to the k-th CPU of that allowed set. The
// policy picks whether to pin:
//
//   kCoresFirst  — the topology's cores-first order (one CPU per physical
//                  core before any SMT sibling; the default, so adjacent
//                  worker tids never land on hyperthread pairs while whole
//                  cores sit idle), filtered to the allowed set. When that
//                  order misses the allowed set entirely (CPUs the startup
//                  topology never saw), ascending CPU id stands in.
//   kNone        — no pinning (RunConfig's default).
#pragma once

#include <cstddef>

namespace membq {

enum class PinPolicy {
  kNone,        // leave the scheduler alone
  kCoresFirst,  // physical cores before SMT siblings (topology order)
};

// Number of CPUs the calling thread is currently allowed on (>= 1).
std::size_t online_cpus() noexcept;

// Pin the calling thread to the k-th CPU of its currently-allowed set,
// in cores-first order (k wraps). kNone succeeds without pinning. Returns
// false when the platform does not support affinity or the syscall
// fails; callers treat pinning as best-effort.
bool pin_current_thread(std::size_t k,
                        PinPolicy policy = PinPolicy::kCoresFirst) noexcept;

}  // namespace membq
