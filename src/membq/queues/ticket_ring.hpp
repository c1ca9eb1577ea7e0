// The ticket ring of the paper's L2, L3 and L4, written once.
//
// The three designs run one protocol and differ only in how a cell
// defeats ABA, the axis Theorem 3.12 turns on. That difference is the cell
// policy `Cells`, one per header:
//   distinct(L2)  queues/distinct_queue.hpp  ⊥ names its round; values are
//                                            distinct, so a CAS from a
//                                            value cannot ABA. Θ(1)
//   llsc(L3)      queues/llsc_queue.hpp      LL/SC cells: the stamp
//                                            rejects a stale sc(), and ⊥ is
//                                            one word in every round. Θ(1)
//   dcss(L4)      queues/dcss_queue.hpp      ⊥ names its round; the vacate
//                                            is a DCSS on head_. Θ(T)
//
// Protocol (tickets t on tail_, h on head_; a ticket's round is ticket/C):
//   enqueue: the cell of ticket t must hold ⊥_{t/C}, the ⊥ its claim
//            expects; turn it into the value, then help advance tail_. A
//            cell holding a value means either ticket t is already written
//            (help tail_) or the ring is full.
//   dequeue: the cell must hold a value; turn it into ⊥_{h/C+1}, then help
//            advance head_. A ⊥ means ticket h is served (help head_) or
//            the ring is empty: empty if it is ⊥_{h/C} and tail_ ≤ h. A
//            roundless ⊥ is ⊥_{h/C} in every round, so there only tail_
//            tells.
//   The first claim of a call confirms its ticket: a second counter load
//   after the cell read must still read t (h).
//   Tail gate: a dequeue vacates ticket h only once tail_ > h, helping
//   tail_ first. Otherwise head_ can pass a tail_ whose enqueuer has
//   written ticket h but not yet advanced it, and an enqueuer that then
//   reads tail_ = h finds its fullness gate t − head wrapped: a full
//   verdict on an empty ring. Under a roundless ⊥ a second enqueuer
//   holding ticket h could also fill the cell again, a round behind head_.
//   A bulk op claims further consecutive cells t0+1, t0+2, … under the
//   same gates and floors, one attempt each, and then advances the counter
//   once, to at least t0+k; a scalar op is a bulk op of one. A claim past
//   the first cannot confirm its ticket against the counter, which our own
//   unadvanced claim holds back anywhere in [t0, t], so it checks instead:
//   * enqueue: only ticket t's own ⊥ passes. Had ticket t been written
//     and served while our claim sat unadvanced, a ⊥ that names its round
//     reads ⊥_{t/C+1}. A roundless ⊥ cannot tell, so a tail_ load made
//     after the cell read must still be ≤ t: serving t needs tail_ > t
//     first (the tail gate).
//   * dequeue: the tail gate, then the wrap bracket: a head_ load η made
//     after the cell read must be ≤ h. A value carries no round, and a
//     round-(r+1) enqueue of the cell must first see head_ > h (its
//     fullness gate), so η ≤ h proves the value is ticket h's. L4 passes
//     η to its vacate DCSS as the comparand, and it also rejects a
//     round-(r+1) re-enqueue of an equal value.
//   A failed check or a lost claim cuts the batch.
//   Help is patient: a thread that finds a served ticket under a lagging
//   counter polls the counter for up to kHelpPatience pauses per call
//   (help_advance, sync/counter.hpp) before it steps it. The lag is
//   usually a bulk claim still in flight; stepping past it at once would
//   race its owner for the next cell, or move head_ off the η of its
//   owner's next DCSS, and cut its batch.
//
// Memory orders (policy `O`, default RingOrders; sync/memory_order.hpp has
// the policy contract and the freshness caveat). Each cell header
// annotates its own read, claim and vacate.
//   * head_/tail_ load: acquire — pairs with advance_counter()'s release,
//     so a ticket derived from an advanced counter happens-after the cell
//     transitions that let the counter reach it.
//   * counter floors: each Handle keeps the last value it loaded of the
//     other role's counter (head_ when enqueuing, tail_ when dequeuing)
//     and reloads it, with the acquire load above at the same site, only
//     when the floor fails its gate: `t − floor ≥ C` for an enqueue,
//     `floor ≤ h` for a dequeue. The counters are monotone, so a floor
//     only lags: a stale floor makes a gate stricter, never looser, and
//     every full, empty or help-tail verdict is taken on a fresh load.
//     Floors are handle-local, like the tickets t and h, not shared
//     memory, so they add nothing to the overhead.
//   * advance_counter() CAS loop (sync/counter.hpp): release on success —
//     publishes the cell transitions below the new counter value to
//     everyone who derives a ticket from it, and to L4's DCSS verdict load
//     of head_ inside the marker window. Relaxed on failure: losing to a
//     helper observes nothing. It moves the counter to at least seen+k, so
//     a bulk op's claimed range is never left behind a partial helper.
//   * help_advance() poll (sync/counter.hpp): relaxed loads of the lagging
//     counter while it still reads the served ticket. They only decide
//     whether to keep waiting: the step taken once the budget is spent is
//     advance_counter(), and a counter seen to move is re-read by the
//     acquire load above before it is used.
//   * continuation checks: the tail_ load after a roundless ⊥ and the
//     head_ load η are acquire loads, each made after the cell read it
//     judges.
//   * full/empty verdicts additionally rely on counter/cell freshness
//     (per-location coherence), not just the pairings above; the litmus
//     suite stresses exactly these gates. L4's stale-vacate protection
//     does not: that is the DCSS second comparand.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "sync/backoff.hpp"
#include "sync/counter.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

// Defined by the tests only: it parks a bulk call between its first claim
// and its continuation.
struct TicketRingPeer;

// A cell policy supplies:
//   kName            the queue's name
//   Word             a snapshot of one cell: the word, or L3's link
//   read(i)          the cell read: an acquire load, ll(), or the DCSS
//                    domain's read()
//   value(w)         the value or ⊥ a snapshot holds
//   bot(r)           ⊥_r, the ⊥ a claim of a ticket in round r expects.
//                    Values stay below bot(0) and every ⊥ is at or above
//                    it; a roundless ⊥ is the same word in every round
//   claim(i, w, v)   ⊥ → v from snapshot w: CAS or sc(); false if it lost
//   vacate(l, i, w, b, head, η)
//                    value → b from snapshot w: CAS, sc(), or a DCSS that
//                    lands only while head holds η
//   Local            handle-local state, built from the cells: L4's DCSS
//                    descriptor slot
// and a constructor from the capacity (L4: and the thread bound) that
// fills every cell with bot(0).
template <class Cells, class O = RingOrders>
class BasicTicketRing {
 public:
  static constexpr const char* kName = Cells::kName;

  template <class... Args>
  explicit BasicTicketRing(std::size_t capacity, Args... args)
      : cap_(capacity), cells_(capacity, args...) {
    assert(capacity > 0);
  }

  std::size_t capacity() const noexcept { return cap_; }

  // The per-thread access point and the only entry point: it carries the
  // two counter floors (see the header comment), the contention estimate
  // that sizes its Backoff (sync/backoff.hpp) and the cell's handle-local
  // state.
  class Handle {
   public:
    explicit Handle(BasicTicketRing& q) : q_(q), local_(q.cells_) {}
    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) noexcept {
      return try_enqueue_bulk(&v, 1) == 1;
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }
    // Inlined, so that at a scalar call site (n = 1) the continuation
    // folds away and the first claim is the whole op.
    [[gnu::always_inline]] std::size_t try_enqueue_bulk(
        const std::uint64_t* vs, std::size_t n) noexcept {
      if (n == 0) return 0;
      telemetry::count(telemetry::Counter::k_enq_attempt);
      std::uint64_t t0 = 0;
      return q_.enqueue_first(*this, vs[0], t0)
                 ? q_.enqueue_rest(*this, vs, n, t0)
                 : 0;
    }
    [[gnu::always_inline]] std::size_t try_dequeue_bulk(
        std::uint64_t* out, std::size_t n) noexcept {
      if (n == 0) return 0;
      telemetry::count(telemetry::Counter::k_deq_attempt);
      std::uint64_t h0 = 0;
      return q_.dequeue_first(*this, out[0], h0)
                 ? q_.dequeue_rest(*this, out, n, h0)
                 : 0;
    }

   private:
    friend class BasicTicketRing;
    BasicTicketRing& q_;
    std::uint64_t head_floor_ = 0;  // a head_ value this handle loaded
    std::uint64_t tail_floor_ = 0;  // a tail_ value this handle loaded
    std::uint32_t contention_ = 0;  // Backoff's share of calls that paused
    typename Cells::Local local_;
  };

 private:
  friend struct TicketRingPeer;
  using Word = typename Cells::Word;

  static bool is_bot(const Word& w) noexcept {
    return Cells::value(w) >= Cells::bot(0);
  }

  // Reload a handle's floor of `counter`, once the floor fails its gate.
  static void reload_floor(const std::atomic<std::uint64_t>& counter,
                           std::uint64_t& floor) noexcept {
    floor = counter.load(O::acquire);
    telemetry::count(telemetry::Counter::k_floor_reload);
  }

  // The first enqueue claim, the whole protocol at n=1: claims ticket t0
  // for v, or returns false on a full verdict. Tickets are allocated by
  // the cell claim, never by the counter, so a lagging tail_ only costs
  // other threads help steps.
  [[gnu::always_inline]] bool enqueue_first(Handle& hd, std::uint64_t v,
                                            std::uint64_t& t0) noexcept {
    assert(v < Cells::bot(0) && "values must stay below the reserved range");
    Backoff backoff(hd.contention_);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t& hf = hd.head_floor_;
    for (;;) {
      const std::uint64_t t = tail_.load(O::acquire);
      if (t - hf >= cap_) reload_floor(head_, hf);
      const std::uint64_t round = t / cap_;
      const std::size_t i = t % cap_;
      const Word w = cells_.read(i);
      // Confirm ticket t was still current around the cell read (tail_ is
      // monotone, so re-reading t bounds the cell read's round).
      if (t != tail_.load(O::acquire)) continue;
      // Full, with a value in the cell or a ⊥: a ⊥ may be a vacancy whose
      // dequeuer has not yet advanced head_, and writing there would land
      // a wrapped value under a head ticket another dequeuer may still
      // serve. (Freshness argument: a failing floor was just reloaded by
      // an acquire load of a monotone counter.)
      if (t - hf >= cap_) return false;
      if (!is_bot(w)) {  // ticket t already written: help tail_ past it
        help_advance<O>(tail_, t, patience);
        continue;
      }
      // A ⊥ of another round than t's cannot be read here, so it shares
      // the lost claim's pause. tail_ read t on both sides of the cell
      // read: an older ⊥ was replaced before tail_ passed ticket t − C,
      // and ⊥_{t/C+1} means ticket t was served, after a tail_ > t load
      // (the tail gate) that happens-before the read.
      if (Cells::value(w) == Cells::bot(round) && cells_.claim(i, w, v)) {
        t0 = t;
        return true;
      }
      backoff.pause();
    }
  }

  // The enqueue continuation over vs[1..n) from the claimed ticket t0
  // (see the header comment), then the one tail_ advance. Returns the
  // number of values enqueued, at least 1.
  [[gnu::always_inline]] std::size_t enqueue_rest(Handle& hd,
                                                  const std::uint64_t* vs,
                                                  std::size_t n,
                                                  std::uint64_t t0) noexcept {
    std::uint64_t& hf = hd.head_floor_;
    std::size_t k = 1;
    while (k < n && k < cap_) {
      assert(vs[k] < Cells::bot(0) &&
             "values must stay below the reserved range");
      const std::uint64_t t = t0 + k;
      // Fullness gate per step: the same hazard as the first claim's.
      if (t - hf >= cap_) {
        reload_floor(head_, hf);
        if (t - hf >= cap_) break;
      }
      const std::uint64_t round = t / cap_;
      const std::size_t i = t % cap_;
      const Word w = cells_.read(i);
      // Only ticket t's own ⊥ passes: a value means another enqueuer holds
      // ticket t, and a ⊥ that names its round reads ⊥_{t/C+1} once
      // ticket t was written and served under our unadvanced claim.
      if (Cells::value(w) != Cells::bot(round)) break;
      // A roundless ⊥ cannot say so: it is ticket t's only while tail_ ≤ t.
      if constexpr (Cells::bot(0) == Cells::bot(1)) {
        if (tail_.load(O::acquire) > t) break;
      }
      if (!cells_.claim(i, w, vs[k])) break;
      ++k;
    }
    advance_counter<O>(tail_, t0, k);
    return k;
  }

  // The first dequeue claim, the whole protocol at n=1: takes ticket h0's
  // value into `out`, or returns false on an empty verdict. Every vacate
  // of ticket h waits for tail_ > h (the tail gate), tested on the
  // handle's tail floor, which is reloaded only when it is ≤ h.
  [[gnu::always_inline]] bool dequeue_first(Handle& hd, std::uint64_t& out,
                                            std::uint64_t& h0) noexcept {
    Backoff backoff(hd.contention_);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t& tf = hd.tail_floor_;
    for (;;) {
      const std::uint64_t h = head_.load(O::acquire);
      if (tf <= h) reload_floor(tail_, tf);
      const std::uint64_t round = h / cap_;
      const std::size_t i = h % cap_;
      const Word w = cells_.read(i);
      if (h != head_.load(O::acquire)) continue;
      if (!is_bot(w)) {
        // Tail gate: ticket h's enqueuer has written but not yet advanced
        // tail_. Help it before vacating, so head_ never passes tail_.
        if (tf <= h) {
          help_advance<O>(tail_, tf, patience);
          continue;
        }
        if (cells_.vacate(hd.local_, i, w, Cells::bot(round + 1), head_, h)) {
          out = Cells::value(w);
          h0 = h;
          return true;
        }
        backoff.pause();
        continue;
      }
      // A ⊥: ticket h is served (help head_) or the ring is empty. A ⊥
      // other than ⊥_{h/C} says served. ⊥_{h/C} under the fresh tail floor
      // is the empty verdict: no enqueue of ticket h had landed at the
      // read, and tail_ ≤ h (freshness argument). Under a tail floor above
      // h any ⊥ is ticket h's vacancy: tail_ passed h only after ticket h
      // was written, and that load happens-before the read. So a ⊥ that
      // names its round cannot read ⊥_{h/C} there, and a roundless one,
      // which always does, helps head_.
      if (tf <= h && Cells::value(w) == Cells::bot(round)) return false;
      help_advance<O>(head_, h, patience);
    }
  }

  // The dequeue continuation into out[1..n) from the claimed ticket h0
  // (see the header comment), then the one head_ advance. Returns the
  // number of values dequeued, at least 1.
  [[gnu::always_inline]] std::size_t dequeue_rest(Handle& hd,
                                                  std::uint64_t* out,
                                                  std::size_t n,
                                                  std::uint64_t h0) noexcept {
    std::uint64_t& tf = hd.tail_floor_;
    std::size_t k = 1;
    while (k < n && k < cap_) {
      const std::uint64_t h = h0 + k;
      if (tf <= h) {
        reload_floor(tail_, tf);
        if (tf <= h) break;  // empty, or ticket h's tail not yet advanced
      }
      const std::uint64_t round = h / cap_;
      const std::size_t i = h % cap_;
      const Word w = cells_.read(i);
      if (is_bot(w)) break;  // another dequeuer took ticket h
      // Wrap bracket: η ≤ h after the cell read, or the value may be a
      // round-(r+1) one.
      const std::uint64_t eta = head_.load(O::acquire);
      if (eta > h) break;
      if (!cells_.vacate(hd.local_, i, w, Cells::bot(round + 1), head_, eta)) {
        break;
      }
      out[k] = Cells::value(w);
      ++k;
    }
    advance_counter<O>(head_, h0, k);
    return k;
  }

  const std::size_t cap_;
  Cells cells_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace membq
