// Contention management for CAS retry loops, and the bound on waiting
// for another thread before helping it.
//
// Every ring queue in membq retries a CAS on a positioning counter or a
// slot; Backoff is what a failed attempt does before retrying: truncated
// exponential spin, falling back to yield once the spin budget is large
// (FLeeC-style ExpBackoffCAS shape).
// kHelpPatience is not a retry policy: it bounds how long a thread that
// could help another one waits for it to finish on its own first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>

#include "telemetry/counters.hpp"

namespace membq {

namespace detail {
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}
}  // namespace detail

// Pauses a thread waits for another thread's operation in flight before
// it helps (Kogan & Petrank's fast path/slow path patience): the lock-free
// L5 polls its own record this long before joining an installation, a
// ticket ring polls a lagging counter this long, once per bulk body,
// before stepping it (help_advance, sync/counter.hpp), and the lock-free
// L1's full verdict polls a claimed, unfilled slot this long before it
// burns the stalled claim. Polls are loads and pauses, and the wait is
// not a Backoff episode. CHANGES.md has the ablation of this bound for
// the L5 and the rings.
inline constexpr std::uint32_t kHelpPatience = 256;

class Backoff {
 public:
  static constexpr std::uint32_t kInitialSpins = 4;
  static constexpr std::uint32_t kMaxSpins = 1024;
  // Above this budget a failed CAS means we are oversubscribed or badly
  // contended; burning cycles is worse than letting the winner run.
  static constexpr std::uint32_t kYieldThreshold = 128;

  void pause() noexcept {
    if (limit_ <= kYieldThreshold) {
      telemetry::count(telemetry::Counter::k_backoff_spin);
      for (std::uint32_t i = 0; i < limit_; ++i) detail::cpu_relax();
    } else {
      telemetry::count(telemetry::Counter::k_backoff_yield);
      std::this_thread::yield();
    }
    limit_ = std::min(limit_ * 2, kMaxSpins);
  }

  void reset() noexcept { limit_ = kInitialSpins; }

  // Current truncated-exponential budget; exposed for the monotonicity
  // tests.
  std::uint32_t current_spin_limit() const noexcept { return limit_; }

 private:
  std::uint32_t limit_ = kInitialSpins;
};

}  // namespace membq
