// Positioning-counter steps of the ticket rings: the one ring of L2, L3
// and L4 (queues/ticket_ring.hpp) and the SCQ baseline. Each ring
// instantiates them with its own memory-order policy `O`
// (sync/memory_order.hpp).
//
// The lock-free L5 keeps its own one-shot advance: only the installed
// announcement's helpers move its counters, all from the same bound value,
// so the at-least loop below is not its contract.
#pragma once

#include <atomic>
#include <cstdint>

#include "sync/backoff.hpp"

namespace membq {

// Move `counter` to at least seen+k: one helping step (k = 1) or the
// range a bulk op claimed. Release on success publishes the cell
// transitions below seen+k to the rings' acquire counter loads; relaxed
// on failure, where nothing is read. The loop stops once the counter is
// there. A one-shot CAS seen → seen+k would fail after a helper stepped
// the counter to seen+1 and leave it stranded below our claimed tickets:
// once those cells are dequeued, nothing steps it again (enqueue helps
// only past a cell holding a value, and the `t - h` fullness gate wraps
// when head_ passes tail_).
template <class O>
inline void advance_counter(std::atomic<std::uint64_t>& counter,
                            std::uint64_t seen, std::uint64_t k) noexcept {
  std::uint64_t cur = seen;
  while (cur < seen + k && !counter.compare_exchange_weak(
                               cur, seen + k, O::release, O::relaxed)) {
  }
}

// Help `counter` one step past ticket `seen`, which another thread has
// already served but not yet counted. That thread is usually still inside
// its call, about to advance the counter over its whole claim; stepping
// first would let us race it for the next cell and cut its batch. So poll
// the counter while it still reads `seen`, one pause per poll, drawing on
// `budget`: the caller's one allowance of kHelpPatience pauses per bulk
// body. Only once the budget is spent step the counter ourselves; from
// then on the rest of the call helps at once. A stalled owner thus delays
// a call by at most kHelpPatience pauses, and the rings stay lock-free.
// The poll is relaxed: it only decides whether to keep waiting, and a
// counter seen past `seen` is left alone (the caller re-reads it with
// acquire). Waiting writes nothing shared, so every history with it is
// one the eager step admits with the helper descheduled for as long.
template <class O>
inline void help_advance(std::atomic<std::uint64_t>& counter,
                         std::uint64_t seen, std::uint32_t& budget) noexcept {
  while (counter.load(O::relaxed) == seen) {
    if (budget == 0) {
      advance_counter<O>(counter, seen, 1);
      return;
    }
    --budget;
    detail::cpu_relax();
  }
}

}  // namespace membq
