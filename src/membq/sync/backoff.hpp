// Contention management for CAS retry loops, and the bound on waiting
// for another thread before helping it.
//
// Every ring queue in membq retries a CAS on a positioning counter or a
// slot; Backoff is what a failed attempt does before retrying: truncated
// exponential spin, falling back to yield once the spin budget is large,
// with a first pause sized by the handle's own recent losses (adaptive
// backoff, Anderson, IEEE TPDS 1990; FLeeC's ExpBackoffCAS keeps the same
// per-thread hit/miss history across calls).
//
// The rule. Each ring handle keeps one contention estimate: the share of
// its recent calls whose Backoff paused, exponentially weighted (every
// call moves it 1/2^kShareWeightShift of the way to 1 if it paused, to 0
// if not). A call's first pause has the budget kInitialSpins + share ·
// kGain pauses; every later pause doubles the budget up to kMaxSpins, and
// a budget above kYieldThreshold yields instead of spinning. A handle
// that loses often thus stays out of the winner's lines longer, and one
// that rarely loses keeps the short start. The estimate is handle-local
// state, like the rings' counter floors, so it adds no shared word and no
// byte to E9; every pause is still a bounded self-delay, so the rings
// stay lock-free. CHANGES.md has the ablation that chose kGain and the
// weight.
//
// Scale: a PAUSE costs 14–16 ns on a 4-CPU Xeon KVM guest (a loop of
// 20 M PAUSEs), so the start ranges from 4 pauses (about 60 ns) on a
// handle that never lost to 4 + 128 pauses (about 2 µs) on one whose
// every recent call lost, and kHelpPatience = 256 pauses is about
// 3.7–4.1 µs.
//
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
// before stepping it (help_advance, sync/counter.hpp), a thread that
// meets another's DCSS marker polls the word this long before it helps
// (sync/dcss.cpp), and the lock-free L1's full verdict polls a claimed,
// unfilled slot this long before it burns the stalled claim. Polls are
// loads and pauses, and the wait is not a Backoff episode. CHANGES.md
// has the ablation of this bound for the L5 and the rings.
inline constexpr std::uint32_t kHelpPatience = 256;

// One call's retry pauses. It reads the handle's contention estimate
// `share` at its first pause and folds the call's outcome (paused or
// not) into it when it goes out of scope, so a body's every return path
// updates it.
class Backoff {
 public:
  static constexpr std::uint32_t kInitialSpins = 4;
  static constexpr std::uint32_t kMaxSpins = 1024;
  // Above this budget a failed CAS means we are oversubscribed or badly
  // contended; burning cycles is worse than letting the winner run.
  static constexpr std::uint32_t kYieldThreshold = 128;
  // The estimate is a share in units of 2^-16: kShareOne is "every
  // recent call paused". Each call moves it 1/16 of the way.
  static constexpr std::uint32_t kShareOne = std::uint32_t{1} << 16;
  static constexpr unsigned kShareWeightShift = 4;
  // First-pause spins added at share kShareOne.
  static constexpr std::uint32_t kGain = 128;
  static_assert(kInitialSpins + kGain <= kMaxSpins);

  explicit Backoff(std::uint32_t& share) noexcept : share_(share) {}
  Backoff(const Backoff&) = delete;
  Backoff& operator=(const Backoff&) = delete;
  ~Backoff() {
    share_ = share_ - (share_ >> kShareWeightShift) +
             (limit_ != 0 ? kShareOne >> kShareWeightShift : 0);
  }

  void pause() noexcept {
    if (limit_ == 0) limit_ = first_limit(share_);
    if (limit_ <= kYieldThreshold) {
      telemetry::count(telemetry::Counter::k_backoff_spin);
      for (std::uint32_t i = 0; i < limit_; ++i) detail::cpu_relax();
    } else {
      telemetry::count(telemetry::Counter::k_backoff_yield);
      std::this_thread::yield();
    }
    limit_ = std::min(limit_ * 2, kMaxSpins);
  }

  // The budget of the next pause; exposed for the tests.
  std::uint32_t current_spin_limit() const noexcept {
    return limit_ != 0 ? limit_ : first_limit(share_);
  }

 private:
  static std::uint32_t first_limit(std::uint32_t share) noexcept {
    return kInitialSpins + share * kGain / kShareOne;
  }

  std::uint32_t& share_;
  std::uint32_t limit_ = 0;  // 0 until the first pause
};

}  // namespace membq
