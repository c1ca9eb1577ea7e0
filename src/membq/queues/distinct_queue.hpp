// L2 — bounded ring under the distinct-values assumption, Θ(1) overhead.
//
// Each cell is one 64-bit word holding either a user value (bit 63 clear)
// or a versioned bottom ⊥_r (bit 63 set, round number in the low bits).
// Because applications never enqueue the same value twice concurrently,
// a CAS from a concrete value cannot ABA, and the round number inside ⊥
// rejects stale enqueues — so the only memory beyond the C element words
// is the two positioning counters: Θ(1).
//
// Protocol (tickets t on tail, h on head; round = ticket / capacity):
//   enqueue: cell must hold ⊥_round; CAS it to the value, then help
//            advance tail. A cell holding a value means either the ticket
//            is already served (help tail) or the ring is full.
//   dequeue: cell must hold a value; CAS it to ⊥_{round+1}, then help
//            advance head. A cell holding ⊥_{round+1} means the ticket is
//            served (help head); ⊥_round with tail ≤ h means empty.
//            It vacates ticket h only once tail > h, helping tail first,
//            as L3 and L4 do. Otherwise head can pass a tail whose
//            enqueuer has written ticket h but not yet advanced it, and
//            an enqueuer that then reads tail = h finds its fullness
//            gate t − head wrapped: a full verdict on an empty ring.
//   A bulk op claims further consecutive cells the same way before its
//   one counter advance; a scalar op is a bulk op of one.
//   Help is patient: a thread that finds a served ticket under a lagging
//   counter polls the counter for up to kHelpPatience pauses per call
//   (help_advance, sync/counter.hpp) before it steps it. The lag is
//   usually a bulk claim still in flight, and stepping past it at once
//   would race its owner for the next cell and cut its batch.
//
// Memory orders (policy `O`, default RingOrders; see sync/memory_order.hpp
// for the policy contract and the freshness-argument caveat):
//   * cell CAS (⊥_r → v and v → ⊥_{r+1}): acq_rel on success. The release
//     half publishes the transition to the opposite role's acquire cell
//     load; the acquire half orders the CAS after the counter loads that
//     justified it. Failure is relaxed — a failed transition is retried
//     from fresh loads and its observed value is discarded.
//   * cell load: acquire — observes the slot CAS releases of both roles,
//     so a thread that sees ⊥_{r+1} (resp. a value) also sees every write
//     the vacating dequeuer (resp. publishing enqueuer) made before it.
//   * head_/tail_ load: acquire — pairs with advance_counter()'s
//     release, so a ticket computed from tail ≥ x happens-after the cell
//     transitions that let tail reach x.
//   * counter floors: each Handle keeps the last value it loaded of the
//     other role's counter (head_ when enqueuing, tail_ when dequeuing)
//     and reloads it (the acquire load above, at the same site) only
//     when the floor fails its gate: `t − floor ≥ C` for an enqueue,
//     `floor ≤ h` for a dequeue. The counters are monotone, so a floor
//     can only lag: a stale floor makes a gate stricter, never looser,
//     and every full, empty or help-tail verdict is taken on a fresh
//     load. Floors are handle-local, like the tickets t and h, not
//     shared memory, so the overhead stays Θ(1).
//   * help_advance() poll (sync/counter.hpp): relaxed loads of the
//     lagging counter while it still reads the served ticket. They only
//     decide whether to keep waiting: the step taken once the budget is
//     spent is advance_counter() below, and a counter seen to move is
//     re-read by the acquire load above before it is used.
//   * advance_counter() CAS loop (sync/counter.hpp): release on success
//     — publishes the cell transitions completed below the new counter
//     value to everyone who derives a ticket from it. Failure relaxed:
//     losing to a helper observes nothing. It moves the counter to AT
//     LEAST seen+k, so a bulk op's claimed range is never left behind a
//     partial helper.
//   * full/empty verdicts additionally rely on counter/cell freshness
//     (per-location coherence), not just the pairings above; the litmus
//     suite stresses exactly these gates.
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
struct DistinctQueuePeer;

template <class O = RingOrders>
class BasicDistinctQueue {
 public:
  static constexpr char kName[] = "distinct(L2)";
  static constexpr std::uint64_t kBotBit = std::uint64_t{1} << 63;

  explicit BasicDistinctQueue(std::size_t capacity)
      : cap_(capacity),
        cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)) {
    assert(capacity > 0);
    // Pre-publication: the constructor finishes before any other thread
    // can hold a reference.
    for (std::size_t i = 0; i < cap_; ++i) cells_[i].store(bot(0), O::init);
  }

  std::size_t capacity() const noexcept { return cap_; }

  // The per-thread access point and the only entry point: it carries the
  // two counter floors (see the header comment) and the contention
  // estimate that sizes its Backoff (sync/backoff.hpp).
  class Handle {
   public:
    explicit Handle(BasicDistinctQueue& q) noexcept : q_(q) {}
    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) noexcept {
      return try_enqueue_bulk(&v, 1) == 1;
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }
    std::size_t try_enqueue_bulk(const std::uint64_t* vs,
                                 std::size_t n) noexcept {
      return q_.enqueue_bulk(vs, n, head_floor_, contention_);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) noexcept {
      return q_.dequeue_bulk(out, n, tail_floor_, contention_);
    }

   private:
    BasicDistinctQueue& q_;
    std::uint64_t head_floor_ = 0;  // a head_ value this handle loaded
    std::uint64_t tail_floor_ = 0;  // a tail_ value this handle loaded
    std::uint32_t contention_ = 0;  // Backoff's share of calls that paused
  };

 private:
  friend struct DistinctQueuePeer;

  // Enqueue: claim consecutive tickets t0, t0+1, … by the ⊥_round → v
  // cell CAS, then advance tail_ once over the claimed range. Tickets are
  // allocated by the cell CAS, never by the counter, so a lagging tail_
  // only costs other threads help steps. Every claim passes the fullness
  // gate `t − head < C`, tested on the handle's floor `hf` and reloaded
  // only when the floor fails (see the header comment): the floor lags
  // head_, so a pass on it implies a pass on a fresh head. `share`: the
  // handle's contention estimate (sync/backoff.hpp).
  std::size_t enqueue_bulk(const std::uint64_t* vs, std::size_t n,
                           std::uint64_t& hf, std::uint32_t& share) noexcept {
    if (n == 0) return 0;
    assert((vs[0] & kBotBit) == 0 && "values must keep bit 63 clear");
    telemetry::count(telemetry::Counter::k_enq_attempt);
    Backoff backoff(share);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t t0;
    for (;;) {  // first item: the whole protocol at n=1
      // Ticket/limit loads: acquire, paired with advance_counter()'s
      // release (see header comment) — the cell state read below is at
      // least as new as the transitions that produced this tail/head.
      const std::uint64_t t = tail_.load(O::acquire);
      if (t - hf >= cap_) reload_floor<O>(head_, hf);
      std::uint64_t cur = cells_[t % cap_].load(O::acquire);
      // Confirm ticket t was still current around the cell read (tail_ is
      // monotone, so re-reading t bounds the cell read's round).
      if (t != tail_.load(O::acquire)) continue;
      const std::uint64_t round = t / cap_;
      if (is_bot(cur)) {
        // Fullness gate on the empty-cell path too: the cell can read
        // ⊥_round while a dequeuer that vacated it has not yet advanced
        // head. Writing then would land a wrapped value under a head
        // ticket another dequeuer may still serve. (Freshness argument:
        // a failing floor was just reloaded by an acquire read of a
        // monotone counter.)
        if (t - hf >= cap_) return 0;
        if (bot_round(cur) == round) {
          if (cells_[t % cap_].compare_exchange_strong(cur, vs[0], O::acq_rel,
                                                       O::relaxed)) {
            t0 = t;
            break;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
        }
        backoff.pause();
        continue;
      }
      // Cell holds a value: ring full, or ticket t already written.
      if (t - hf >= cap_) return 0;
      help_advance<O>(tail_, t, patience);
    }
    std::size_t k = 1;
    while (k < n && k < cap_) {
      const std::uint64_t t = t0 + k;
      const std::uint64_t round = t / cap_;
      // Fullness gate per step — the same hazard as the first claim's
      // empty-cell gate (a wrapped write under a served ticket).
      if (t - hf >= cap_) {
        reload_floor<O>(head_, hf);
        if (t - hf >= cap_) break;
      }
      std::uint64_t cur = cells_[t % cap_].load(O::acquire);
      if (!is_bot(cur) || bot_round(cur) != round) break;
      // Same release half as the first claim: publishes vs[k] to the
      // dequeuer's acquire cell load.
      if (!cells_[t % cap_].compare_exchange_strong(cur, vs[k], O::acq_rel,
                                                    O::relaxed)) {
        telemetry::count(telemetry::Counter::k_cas_fail);
        break;
      }
      ++k;
    }
    advance_counter<O>(tail_, t0, k);
    return k;
  }

  // Dequeue mirror, with one extra per-step check the rounds force on
  // this ring: a value word carries NO round (that is the Θ(1) trick), so
  // before vacating ticket h0+k we must know the value we read is round
  // r's and not a wrapped round-(r+1) re-enqueue. The first claim
  // brackets its cell read with `h == head_.load()`; past it the claimed
  // prefix is already vacated, so helpers may legally advance head_ up to
  // h0+k — the bracket becomes `head_.load() ≤ h0+k` AFTER the cell read.
  // A round-(r+1) enqueue of this slot must first pass the fullness gate,
  // which requires observing head_ > h0+k; the monotone counter then says
  // that gate passed after our confirm, hence after our cell read — so
  // the value we saw was round r's. The cell CAS arbitrates same-round
  // races as usual. Every vacate of ticket h waits for tail_ > h (see the
  // header comment), tested on the handle's tail floor `tf`, which is
  // reloaded only when `tf ≤ h`.
  std::size_t dequeue_bulk(std::uint64_t* out, std::size_t n,
                           std::uint64_t& tf, std::uint32_t& share) noexcept {
    if (n == 0) return 0;
    telemetry::count(telemetry::Counter::k_deq_attempt);
    Backoff backoff(share);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t h0;
    for (;;) {  // first item: the whole protocol at n=1
      // Same pairing as the enqueue: acquire counter load against
      // advance_counter()'s release.
      const std::uint64_t h = head_.load(O::acquire);
      if (tf <= h) reload_floor<O>(tail_, tf);
      std::uint64_t cur = cells_[h % cap_].load(O::acquire);
      if (h != head_.load(O::acquire)) continue;
      const std::uint64_t round = h / cap_;
      if (!is_bot(cur)) {
        // Tail still at h: ticket h's enqueuer has written but not yet
        // advanced tail. Help it before vacating, so head_ never passes
        // tail_ (see the header comment).
        if (tf <= h) {
          help_advance<O>(tail_, tf, patience);
          continue;
        }
        // Vacate: value → ⊥_{round+1}. Release publishes the vacancy to
        // the enqueuer's acquire cell load; the version bump (round+1)
        // is what rejects a stale wrapped enqueue, independent of order.
        if (cells_[h % cap_].compare_exchange_strong(
                cur, bot(round + 1), O::acq_rel, O::relaxed)) {
          out[0] = cur;
          h0 = h;
          break;
        }
        telemetry::count(telemetry::Counter::k_cas_fail);
        backoff.pause();
        continue;
      }
      if (bot_round(cur) == round + 1) {
        help_advance<O>(head_, h, patience);  // ticket h already dequeued; help
        continue;
      }
      // Empty verdict: cell still holds ⊥_round (the acquire cell load is
      // the arbiter — no enqueue of ticket h had landed at that read, and
      // tickets are served in order) and the tail floor agrees no later
      // element exists (freshness argument on the monotone counter).
      if (tf <= h) return 0;  // empty
      backoff.pause();
    }
    std::size_t k = 1;
    while (k < n && k < cap_) {
      const std::uint64_t h = h0 + k;
      const std::uint64_t round = h / cap_;
      if (tf <= h) {
        reload_floor<O>(tail_, tf);
        if (tf <= h) break;  // empty, or ticket h's tail not yet advanced
      }
      std::uint64_t cur = cells_[h % cap_].load(O::acquire);
      if (is_bot(cur)) break;  // not yet published (or already vacated)
      // Wrap bracket (see above): confirm head_ has not passed this
      // ticket — otherwise cur may be a round-(r+1) value.
      if (head_.load(O::acquire) > h) break;
      if (!cells_[h % cap_].compare_exchange_strong(
              cur, bot(round + 1), O::acq_rel, O::relaxed)) {
        telemetry::count(telemetry::Counter::k_cas_fail);
        break;
      }
      out[k] = cur;
      ++k;
    }
    advance_counter<O>(head_, h0, k);
    return k;
  }

  static bool is_bot(std::uint64_t w) noexcept { return (w & kBotBit) != 0; }
  static std::uint64_t bot(std::uint64_t round) noexcept {
    return kBotBit | round;
  }
  static std::uint64_t bot_round(std::uint64_t w) noexcept {
    return w & ~kBotBit;
  }

  const std::size_t cap_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using DistinctQueue = BasicDistinctQueue<>;

}  // namespace membq
