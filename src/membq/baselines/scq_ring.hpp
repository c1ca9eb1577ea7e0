// Baseline — SCQ-style cycle-tagged ring, Θ(C) overhead.
//
// The scalable-circular-queue family tags every slot with the ring cycle
// it belongs to and lets threads race ahead with fetch-and-add-shaped
// helping on the positioning counters. We keep the cycle tag in a second
// word next to the value and update both with one double-width CAS:
//   state 2r   — slot empty, ready for round r's enqueue
//   state 2r+1 — slot holds round r's value
// The explicit cycle is what distinguishes this family from Vyukov's
// store-published sequence (and like it, costs Θ(C) metadata).
//
// A thread that finds its ticket served under a lagging counter helps the
// counter past it: an enqueuer on any state from 2r+1 on (a dequeuer may
// already have vacated the cell), a dequeuer on any state from 2(r+1) on
// (the cell may already be refilled for round r+1). Help is patient, as
// in the paper's rings: it polls the counter for up to kHelpPatience
// pauses per call (help_advance, sync/counter.hpp) before it steps it, so
// a bulk claim still in flight is not cut.
//
// Memory orders (policy `O`, default RingOrders):
//   * entry CAS: acq_rel on success — the release half hands the
//     (state, value) pair across the role boundary (enqueue publishes
//     round r's value, dequeue publishes round r+1's vacancy); the
//     acquire half orders the CAS after the counter loads that justified
//     it. Relaxed failure: retried from fresh loads.
//   * entry load: acquire — observes the opposite role's CAS release;
//     the cycle tag read decides help/full/empty, and the value is only
//     trusted when the tag matches the ticket's round.
//   * head_/tail_ load: acquire, paired with advance_counter()'s
//     release. Each role loads its own counter for its ticket; it loads
//     the other role's counter only on its full/empty verdict path,
//     after the entry read showed neither a ready nor a served state.
//   * advance_counter() CAS loop (sync/counter.hpp): release success /
//     relaxed failure; moves a counter to at least seen+k (a helper's
//     step, or a claimed range).
//   * help_advance() poll (sync/counter.hpp): relaxed loads of the
//     lagging counter while it still reads the served ticket. They only
//     decide whether to keep waiting: the step taken once the budget is
//     spent is advance_counter() above, and a counter seen to move is
//     re-read by the acquire load above before it is used.
//   * full/empty verdicts rely on counter/entry freshness beyond the
//     pairings (per-location coherence; see sync/memory_order.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "sync/backoff.hpp"
#include "sync/counter.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

// Defined by the tests only: it lands an enqueue's cell CAS without the
// tail_ advance that follows it.
struct ScqRingPeer;

template <class O = RingOrders>
class BasicScqRing {
 public:
  static constexpr char kName[] = "scq(faa-ring)";

  explicit BasicScqRing(std::size_t capacity)
      : cap_(capacity),
        cells_(std::make_unique<std::atomic<Entry>[]>(capacity)) {
    assert(capacity > 0);
    // Pre-publication initialization.
    for (std::size_t i = 0; i < cap_; ++i) {
      cells_[i].store(Entry{0, 0}, O::init);
    }
  }

  std::size_t capacity() const noexcept { return cap_; }

  // The per-thread access point and the only entry point: it carries the
  // contention estimate that sizes its Backoff (sync/backoff.hpp).
  class Handle {
   public:
    explicit Handle(BasicScqRing& q) noexcept : q_(q) {}
    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) noexcept {
      return try_enqueue_bulk(&v, 1) == 1;
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }
    std::size_t try_enqueue_bulk(const std::uint64_t* vs,
                                 std::size_t n) noexcept {
      return q_.enqueue_bulk(vs, n, contention_);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) noexcept {
      return q_.dequeue_bulk(out, n, contention_);
    }

   private:
    BasicScqRing& q_;
    std::uint32_t contention_ = 0;  // Backoff's share of calls that paused
  };

 private:
  friend struct ScqRingPeer;

  // Enqueue: claim consecutive tickets t0, t0+1, … by the slot CAS
  // (2r → 2r+1), then advance tail_ once over the claimed range. Safe
  // because the counter only helps: tickets are allocated by the slot
  // CAS, never by the counter, so a lagging tail_ costs other threads
  // help iterations but never correctness. A slot whose state is 2·round
  // is always claimable (its previous round was dequeued, so head has
  // passed ticket t−cap_). Any contention or unready slot ends the
  // batch: prefix semantics. `share`: the handle's contention estimate
  // (sync/backoff.hpp).
  std::size_t enqueue_bulk(const std::uint64_t* vs, std::size_t n,
                           std::uint32_t& share) noexcept {
    if (n == 0) return 0;
    telemetry::count(telemetry::Counter::k_enq_attempt);
    Backoff backoff(share);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t t0;
    for (;;) {  // first item: the whole protocol at n=1
      // Acquire ticket loads paired with advance_counter()'s release
      // (header).
      const std::uint64_t t = tail_.load(O::acquire);
      Entry cur = cells_[t % cap_].load(O::acquire);
      if (t != tail_.load(O::acquire)) continue;
      const std::uint64_t round = t / cap_;
      if (cur.state == 2 * round) {
        // Cycle handoff: CAS 2r -> 2r+1 publishes the value with release
        // for the dequeuer's acquire entry load.
        if (cells_[t % cap_].compare_exchange_strong(
                cur, Entry{2 * round + 1, vs[0]}, O::acq_rel, O::relaxed)) {
          t0 = t;
          break;
        }
        telemetry::count(telemetry::Counter::k_cas_fail);
        backoff.pause();
        continue;
      }
      // Ticket t served: its enqueuer wrote the cell (state 2r+1) and has
      // not yet advanced tail_, and a dequeuer, which does not wait for
      // tail_, may since have vacated it to 2(r+1). States only grow, so
      // any state from 2r+1 on says t is done; help tail_ past it. The
      // fullness gate below must not see such a t: head_ may be past it,
      // and t − head would wrap.
      if (cur.state >= 2 * round + 1) {
        help_advance<O>(tail_, t, patience);
        continue;
      }
      // Slot still carries an older cycle: full once head_, loaded here
      // after the entry read, agrees (freshness argument on the monotone
      // counters).
      if (t - head_.load(O::acquire) >= cap_) return 0;
      backoff.pause();
    }
    std::size_t k = 1;
    while (k < n && k < cap_) {
      const std::uint64_t t = t0 + k;
      const std::uint64_t round = t / cap_;
      Entry cur = cells_[t % cap_].load(O::acquire);
      if (cur.state != 2 * round) break;  // unready or already claimed
      // Same release half as the first claim: publishes vs[k] to the
      // dequeuer's acquire entry load for round `round`.
      if (!cells_[t % cap_].compare_exchange_strong(
              cur, Entry{2 * round + 1, vs[k]}, O::acq_rel, O::relaxed)) {
        telemetry::count(telemetry::Counter::k_cas_fail);
        break;
      }
      ++k;
    }
    advance_counter<O>(tail_, t0, k);
    return k;
  }

  // Dequeue mirror: claim consecutive published slots (2r+1 → 2(r+1)),
  // then advance head_ once over the claimed range.
  std::size_t dequeue_bulk(std::uint64_t* out, std::size_t n,
                           std::uint32_t& share) noexcept {
    if (n == 0) return 0;
    telemetry::count(telemetry::Counter::k_deq_attempt);
    Backoff backoff(share);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t h0;
    for (;;) {  // first item: the whole protocol at n=1
      const std::uint64_t h = head_.load(O::acquire);
      Entry cur = cells_[h % cap_].load(O::acquire);
      if (h != head_.load(O::acquire)) continue;
      const std::uint64_t round = h / cap_;
      if (cur.state == 2 * round + 1) {
        // Cycle handoff: CAS 2r+1 -> 2(r+1) publishes the vacancy for
        // round r+1's enqueuer; the value was carried inside the same
        // double-width word, so its read needs no separate pairing.
        if (cells_[h % cap_].compare_exchange_strong(
                cur, Entry{2 * (round + 1), 0}, O::acq_rel, O::relaxed)) {
          out[0] = cur.value;
          h0 = h;
          break;
        }
        telemetry::count(telemetry::Counter::k_cas_fail);
        backoff.pause();
        continue;
      }
      // Ticket h served: its owner vacated the cell (state 2(r+1)) and
      // has not yet advanced head_, and an enqueuer may since have
      // refilled the cell for round r+1. States only grow, so any state
      // from 2(r+1) on says h is done; help head_ past it.
      if (cur.state >= 2 * (round + 1)) {
        help_advance<O>(head_, h, patience);
        continue;
      }
      // Empty verdict: entry still in round r's enqueue-ready state and
      // tail_, loaded here after the entry read, agrees (freshness
      // argument).
      if (tail_.load(O::acquire) <= h) return 0;  // empty
      backoff.pause();
    }
    std::size_t k = 1;
    while (k < n && k < cap_) {
      const std::uint64_t h = h0 + k;
      const std::uint64_t round = h / cap_;
      Entry cur = cells_[h % cap_].load(O::acquire);
      if (cur.state != 2 * round + 1) break;  // unpublished or claimed
      // Same release half as the first claim: publishes the vacancy to
      // round r+1's enqueuer; the value rode inside the double-width word.
      if (!cells_[h % cap_].compare_exchange_strong(
              cur, Entry{2 * (round + 1), 0}, O::acq_rel, O::relaxed)) {
        telemetry::count(telemetry::Counter::k_cas_fail);
        break;
      }
      out[k] = cur.value;
      ++k;
    }
    advance_counter<O>(head_, h0, k);
    return k;
  }

  struct alignas(2 * sizeof(std::uint64_t)) Entry {
    std::uint64_t state;
    std::uint64_t value;
  };

  const std::size_t cap_;
  std::unique_ptr<std::atomic<Entry>[]> cells_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using ScqRing = BasicScqRing<>;

}  // namespace membq
