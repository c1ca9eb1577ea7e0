// L4 — bounded ring whose dequeue vacates by DCSS on the head counter, Θ(T).
//
// Cells are plain 64-bit words holding a value or a round-versioned ⊥_r
// (bit 62 plus the round r = ticket / C, as in the lock-free L5); bit 63
// is the DCSS marker bit. A cell's ⊥ never recurs (⊥_r → v → ⊥_{r+1} →
// …), so an enqueue claims ticket t with one CAS ⊥_{t/C} → v, and a
// stale enqueuer's CAS misses once the cell has moved on. The one
// transition a round cannot guard is the dequeue's vacate v → ⊥_{r+1}:
// values may repeat, so a dequeuer that slept through a ring round can
// find the value it expects back in its cell — the stale CAS Theorem 3.12
// uses to kill constant-overhead CAS rings. So the vacate is a DCSS whose
// second comparand is head_, and it lands only while head_ still holds
// the dequeuer's ticket. The memory price is the DCSS descriptor pool:
// one descriptor per thread, Θ(T). A dequeuer vacates ticket h only once
// tail_ has passed h (it helps tail_ first), so head_ never passes
// tail_: otherwise an enqueuer that read tail_ = h under a head_ past it
// would find its fullness gate t − head wrapped and report full.
//
// Bulk ops have L2's shape: the first claim is the whole scalar protocol,
// further cells t0+1, t0+2, … are claimed one at a time under the same
// gates and floors, and the counter then advances once, to at least
// t0+k. A scalar op is a bulk op of one. A claim past the first cannot
// confirm its ticket against the counter, which our own unadvanced claim
// holds back anywhere in [t0, t]:
//   * enqueue: the CAS ⊥_{t/C} → v needs no check. Had ticket t been
//     written and served while our claim sat unadvanced, the cell would
//     hold ⊥_{t/C+1}, and the CAS misses.
//   * dequeue: vacate ticket h only once tail_ > h (the rule above), then
//     η = head_ ≤ h and DCSS(v → ⊥_{h/C+1}, head_ == η): L2's wrap
//     bracket, and it also rejects a round-(r+1) re-enqueue of an equal
//     value, since that enqueue must first see head_ > h.
// Each claim past the first is one attempt, as in L2 and L3: a failed
// check, CAS or DCSS cuts the batch.
//
// Help is patient, as in L2 and L3: a thread that finds a served ticket
// under a lagging counter polls the counter for up to kHelpPatience
// pauses per call (help_advance, sync/counter.hpp) before it steps it.
// The lag is usually a bulk claim still in flight. Stepping past it at
// once races its owner for the next cell, or moves head_ off the
// comparand η of its owner's next DCSS, and cuts the batch.
//
// Memory orders (policy `O`, default RingOrders):
//   * cell read: domain_.read() — an acquire load of the cell that first
//     helps any DCSS marker it finds out of the way (sync/dcss.cpp).
//   * enqueue CAS ⊥_r → v: acq_rel on success, as in L2 — the release
//     half publishes v to the dequeuer's acquire read(), the acquire half
//     orders the CAS after the counter loads that justified it. Relaxed
//     on failure: the claim is retried from fresh loads or the batch is
//     cut. No DCSS expects a ⊥, so a marker sits only on a cell holding a
//     value, never on the ⊥ this CAS expects.
//   * vacate DCSS v → ⊥_{r+1}: BasicDcssDomain<O> — it resolves with a
//     release, and its verdict reads head_ inside the marker window
//     (pairings annotated in sync/dcss.cpp).
//   * head_/tail_ load: acquire — pairs with advance_counter()'s release.
//   * counter floors: as in the L3 ring, each Handle keeps the last value
//     it loaded of the other role's counter and reloads it (the acquire
//     load above, same site) only when the floor fails its gate
//     (`t − floor ≥ C`, `floor ≤ h`). A floor only lags its monotone
//     counter, so it makes a gate stricter, never looser; every full,
//     empty or help-tail verdict is taken on a fresh load. Floors are
//     handle-local state, not shared memory: the Θ(T) is still the
//     descriptor pool alone.
//   * advance_counter() CAS loop (sync/counter.hpp): release on success,
//     relaxed on failure (helping race lost, nothing observed); it moves
//     the counter to at least seen+k. The DCSS verdict load reads head_
//     with O::acquire inside the marker window; this release is what the
//     window observes.
//   * help_advance() poll (sync/counter.hpp): relaxed loads of the
//     lagging counter while it still reads the served ticket. They only
//     decide whether to keep waiting: the step taken once the budget is
//     spent is advance_counter() above, and a counter seen to move is
//     re-read by the acquire load above before it is used.
//   * wrap bracket (above): η is an acquire load made after the domain
//     read of the cell. The DCSS compares head_ again inside its marker
//     window, so a vacate lands only if head_ still holds η at its
//     linearization point.
//   * full/empty verdicts rely on counter/cell freshness beyond the
//     pairings (per-location coherence; see sync/memory_order.hpp). The
//     stale-vacate protection itself does NOT: that is the DCSS second
//     comparand, which is what this design exists to demonstrate.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "sync/backoff.hpp"
#include "sync/counter.hpp"
#include "sync/dcss.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

template <class O = RingOrders>
class BasicDcssQueue {
 public:
  static constexpr char kName[] = "dcss(L4)";
  // Bit 63 is the DCSS marker bit; bit 62 flags a ⊥, whose low bits hold
  // its round. Values stay below it.
  static constexpr std::uint64_t kBotFlag = std::uint64_t{1} << 62;

  explicit BasicDcssQueue(
      std::size_t capacity,
      std::size_t max_threads = BasicDcssDomain<O>::kDefaultMaxThreads)
      : cap_(capacity),
        cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
        domain_(max_threads) {
    assert(capacity > 0);
    // Pre-publication initialization: every cell starts at ⊥_0.
    for (std::size_t i = 0; i < cap_; ++i) cells_[i].store(kBotFlag, O::init);
  }

  std::size_t capacity() const noexcept { return cap_; }
  BasicDcssDomain<O>& domain() noexcept { return domain_; }

  class Handle {
   public:
    explicit Handle(BasicDcssQueue& q) : q_(q), th_(q.domain_) {}

    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) noexcept {
      return try_enqueue_bulk(&v, 1) == 1;
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }

    // Enqueue: claim tickets t0, t0+1, … by ⊥_round → v CASes, then
    // advance tail_ once over the claimed range. Inlined, so that at a
    // scalar call site (n = 1) the continuation folds away and the first
    // claim is the whole op.
    [[gnu::always_inline]] std::size_t try_enqueue_bulk(
        const std::uint64_t* vs, std::size_t n) noexcept {
      if (n == 0) return 0;
      assert(vs[0] < kBotFlag && "values must stay below the reserved range");
      telemetry::count(telemetry::Counter::k_enq_attempt);
      Backoff backoff(contention_);
      std::uint32_t patience = kHelpPatience;  // help_advance budget
      BasicDcssQueue& q = q_;
      std::uint64_t t0;
      for (;;) {  // first item: the whole protocol at n=1
        // Acquire ticket loads paired with advance_counter()'s release
        // (header).
        const std::uint64_t t = q.tail_.load(O::acquire);
        if (t - head_floor_ >= q.cap_) reload_floor<O>(q.head_, head_floor_);
        const std::uint64_t round = t / q.cap_;
        std::atomic<std::uint64_t>& cell = q.cells_[t % q.cap_];
        std::uint64_t cur = q.domain_.read(&cell);
        if (t != q.tail_.load(O::acquire)) continue;
        if (is_bot(cur)) {
          // Fullness gate on the empty-cell path: ⊥ may mean a vacated
          // cell whose dequeuer has not yet advanced head. Writing then
          // would land a wrapped value under a head ticket another
          // dequeuer may still serve.
          if (t - head_floor_ >= q.cap_) return 0;
          if (cur == bot(round)) {
            if (cell.compare_exchange_strong(cur, vs[0], O::acq_rel,
                                             O::relaxed)) {
              t0 = t;
              break;
            }
            telemetry::count(telemetry::Counter::k_cas_fail);
          }
          backoff.pause();
          continue;
        }
        if (t - head_floor_ >= q.cap_) return 0;  // full
        // Ticket t already written: help tail_ past it.
        help_advance<O>(q.tail_, t, patience);
      }
      std::size_t k = 1;
      while (k < n && k < q.cap_) {
        const std::uint64_t t = t0 + k;
        if (t - head_floor_ >= q.cap_) {
          reload_floor<O>(q.head_, head_floor_);
          if (t - head_floor_ >= q.cap_) break;  // full
        }
        const std::uint64_t round = t / q.cap_;
        std::atomic<std::uint64_t>& cell = q.cells_[t % q.cap_];
        std::uint64_t cur = q.domain_.read(&cell);
        // Only ticket t's own ⊥ passes (see the header): one written and
        // served under our unadvanced claim left ⊥_{t/C+1}.
        if (cur != bot(round)) break;  // ticket t taken
        assert(vs[k] < kBotFlag && "values must stay below the reserved range");
        if (!cell.compare_exchange_strong(cur, vs[k], O::acq_rel,
                                          O::relaxed)) {
          telemetry::count(telemetry::Counter::k_cas_fail);
          break;
        }
        ++k;
      }
      advance_counter<O>(q.tail_, t0, k);
      return k;
    }

    // Dequeue mirror, with the tail rule and the wrap bracket of a claim
    // past the first (see the header).
    [[gnu::always_inline]] std::size_t try_dequeue_bulk(
        std::uint64_t* out, std::size_t n) noexcept {
      if (n == 0) return 0;
      telemetry::count(telemetry::Counter::k_deq_attempt);
      Backoff backoff(contention_);
      std::uint32_t patience = kHelpPatience;  // help_advance budget
      BasicDcssQueue& q = q_;
      std::uint64_t h0;
      for (;;) {  // first item: the whole protocol at n=1
        const std::uint64_t h = q.head_.load(O::acquire);
        if (tail_floor_ <= h) reload_floor<O>(q.tail_, tail_floor_);
        const std::uint64_t round = h / q.cap_;
        std::atomic<std::uint64_t>& cell = q.cells_[h % q.cap_];
        const std::uint64_t cur = q.domain_.read(&cell);
        if (h != q.head_.load(O::acquire)) continue;
        if (!is_bot(cur)) {
          // Tail still at h: ticket h's enqueuer has written but not yet
          // advanced tail. Help it before vacating (see the header), so
          // head_ never passes tail_.
          if (tail_floor_ <= h) {
            help_advance<O>(q.tail_, tail_floor_, patience);
            continue;
          }
          if (th_.dcss(&cell, cur, bot(round + 1), &q.head_, h)) {
            out[0] = cur;
            h0 = h;
            break;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
          backoff.pause();
          continue;
        }
        if (cur == bot(round + 1)) {
          // ⊥_{h/C+1}: ticket h already dequeued. Help head_ past it.
          help_advance<O>(q.head_, h, patience);
          continue;
        }
        // Empty verdict: the domain read (acquire) saw ⊥_{h/C} at the head
        // ticket, so no enqueue of ticket h had landed, and tail agrees
        // (freshness argument).
        if (tail_floor_ <= h) return 0;  // empty
        backoff.pause();
      }
      std::size_t k = 1;
      while (k < n && k < q.cap_) {
        const std::uint64_t h = h0 + k;
        if (tail_floor_ <= h) {
          reload_floor<O>(q.tail_, tail_floor_);
          // Empty, or ticket h's tail not yet advanced.
          if (tail_floor_ <= h) break;
        }
        const std::uint64_t round = h / q.cap_;
        std::atomic<std::uint64_t>& cell = q.cells_[h % q.cap_];
        const std::uint64_t cur = q.domain_.read(&cell);
        if (is_bot(cur)) break;  // another dequeuer took ticket h
        // Wrap bracket: η ≤ h after the cell read, or cur may be a
        // round-(r+1) value; the DCSS lands only while head_ holds η.
        const std::uint64_t eta = q.head_.load(O::acquire);
        if (eta > h) break;
        if (!th_.dcss(&cell, cur, bot(round + 1), &q.head_, eta)) {
          telemetry::count(telemetry::Counter::k_cas_fail);
          break;
        }
        out[k] = cur;
        ++k;
      }
      advance_counter<O>(q.head_, h0, k);
      return k;
    }

   private:
    BasicDcssQueue& q_;
    typename BasicDcssDomain<O>::ThreadHandle th_;
    std::uint64_t head_floor_ = 0;  // a head_ value this handle loaded
    std::uint64_t tail_floor_ = 0;  // a tail_ value this handle loaded
    std::uint32_t contention_ = 0;  // Backoff's share of calls that paused
  };

 private:
  friend class Handle;

  static bool is_bot(std::uint64_t w) noexcept { return (w & kBotFlag) != 0; }
  // ⊥_round: the ⊥ an enqueue of a ticket in `round` expects.
  static std::uint64_t bot(std::uint64_t round) noexcept {
    return kBotFlag | round;
  }

  const std::size_t cap_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  BasicDcssDomain<O> domain_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using DcssQueue = BasicDcssQueue<>;

}  // namespace membq
