// L4 — bounded ring protected by DCSS on the positioning counters, Θ(T).
//
// Cells are plain 64-bit words holding a value or a single reserved ⊥; no
// per-cell versions. A slot write is a DCSS whose second comparand is the
// positioning counter (tail for enqueue, head for dequeue), so a thread
// that slept through a ring round cannot land a stale CAS — the scenario
// Theorem 3.12 uses to kill constant-overhead CAS rings. The memory price
// is the DCSS descriptor pool: one descriptor per thread, Θ(T). The ⊥
// carries no round, so a dequeuer vacates ticket h only once tail has
// passed h (it helps tail first); the enqueue DCSS's tail comparand then
// rejects any second enqueuer holding ticket h.
//
// Bulk ops have L2's shape: the first claim is the whole scalar protocol,
// further cells t0+1, t0+2, … are claimed one at a time under the same
// gates and floors, and the counter then advances once, to at least
// t0+k. A scalar op is a bulk op of one. A claim past the first cannot
// use its ticket as the comparand: our own unadvanced claim holds the
// counter back, anywhere in [t0, t]. So it takes a fresh counter load
// made after the cell read, checks it, and passes it as the comparand:
//   * enqueue: τ = tail_ ≤ t, then DCSS(⊥ → v, tail_ == τ). The ⊥ names
//     no round: had ticket t been written and served while our claim sat
//     unadvanced, the ⊥ would be ready for t+C. Serving t needs tail_ > t
//     first, and tail_ == τ ≤ t at the DCSS's linearization point.
//   * dequeue: vacate ticket h only once tail_ > h (the rule above), then
//     η = head_ ≤ h and DCSS(v → ⊥, head_ == η): L2's wrap bracket, and
//     it also rejects a round-(r+1) re-enqueue of an equal value, since
//     that enqueue must first see head_ > h.
// Each claim past the first is one attempt, as in L2 and L3: a failed
// check or DCSS cuts the batch.
//
// Help is patient, as in L2 and L3: a thread that finds a served ticket
// under a lagging counter polls the counter for up to kHelpPatience
// pauses per call (help_advance, sync/counter.hpp) before it steps it.
// The lag is usually a bulk claim still in flight. Stepping past it at
// once moves the counter off the comparand τ or η of its owner's next
// DCSS, which then fails and cuts the batch.
//
// Memory orders (policy `O`, default RingOrders): the cell transitions go
// through BasicDcssDomain<O> — read() is an acquire of the cell, dcss()
// resolves with a release, and its verdict reads the counter inside the
// marker window (pairings annotated in sync/dcss.cpp). The counters here
// follow the same pairing as the other rings:
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
//     the counter to at least seen+k. The DCSS verdict load reads the
//     counter with O::acquire inside the marker window; this release is
//     what the window observes.
//   * help_advance() poll (sync/counter.hpp): relaxed loads of the
//     lagging counter while it still reads the served ticket. They only
//     decide whether to keep waiting: the step taken once the budget is
//     spent is advance_counter() above, and a counter seen to move is
//     re-read by the acquire load above before it is used.
//   * continuation comparands (above): τ and η are acquire loads made
//     after the domain read of the cell. The DCSS compares the counter
//     again inside its marker window, so a claim lands only if the
//     counter still holds the checked value at its linearization point.
//   * full/empty verdicts rely on counter/cell freshness beyond the
//     pairings (per-location coherence; see sync/memory_order.hpp). The
//     stale-ticket protection itself does NOT: that is the DCSS second
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
  // Bit 63 is the DCSS marker bit; ⊥ lives just below it.
  static constexpr std::uint64_t kBot = std::uint64_t{1} << 62;

  explicit BasicDcssQueue(
      std::size_t capacity,
      std::size_t max_threads = BasicDcssDomain<O>::kDefaultMaxThreads)
      : cap_(capacity),
        cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
        domain_(max_threads) {
    assert(capacity > 0);
    // Pre-publication initialization.
    for (std::size_t i = 0; i < cap_; ++i) cells_[i].store(kBot, O::init);
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

    // Enqueue: claim tickets t0, t0+1, … by ⊥ → v DCSSes, then advance
    // tail_ once over the claimed range. Inlined, so that at a scalar call
    // site (n = 1) the continuation folds away and the first claim is the
    // whole op.
    [[gnu::always_inline]] std::size_t try_enqueue_bulk(
        const std::uint64_t* vs, std::size_t n) noexcept {
      if (n == 0) return 0;
      assert(vs[0] < kBot && "values must stay below the reserved range");
      telemetry::count(telemetry::Counter::k_enq_attempt);
      Backoff backoff;
      std::uint32_t patience = kHelpPatience;  // help_advance budget
      BasicDcssQueue& q = q_;
      std::uint64_t t0;
      for (;;) {  // first item: the whole protocol at n=1
        // Acquire ticket loads paired with advance_counter()'s release
        // (header).
        const std::uint64_t t = q.tail_.load(O::acquire);
        if (t - head_floor_ >= q.cap_) reload_floor<O>(q.head_, head_floor_);
        const std::uint64_t cur = q.domain_.read(&q.cells_[t % q.cap_]);
        if (t != q.tail_.load(O::acquire)) continue;
        if (cur == kBot) {
          // Fullness gate on the empty-cell path: ⊥ may mean a vacated
          // cell whose dequeuer has not yet advanced head (the DCSS only
          // guards tail, not head).
          if (t - head_floor_ >= q.cap_) return 0;
          if (th_.dcss(&q.cells_[t % q.cap_], kBot, vs[0], &q.tail_, t)) {
            t0 = t;
            break;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
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
        std::atomic<std::uint64_t>* cell = &q.cells_[t % q.cap_];
        if (q.domain_.read(cell) != kBot) break;  // ticket t taken
        // Round check (see the header): τ ≤ t after the cell read, and
        // the DCSS lands only while tail_ still holds τ.
        const std::uint64_t tau = q.tail_.load(O::acquire);
        if (tau > t) break;  // ticket t may be written and served
        assert(vs[k] < kBot && "values must stay below the reserved range");
        if (!th_.dcss(cell, kBot, vs[k], &q.tail_, tau)) {
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
      Backoff backoff;
      std::uint32_t patience = kHelpPatience;  // help_advance budget
      BasicDcssQueue& q = q_;
      std::uint64_t h0;
      for (;;) {  // first item: the whole protocol at n=1
        const std::uint64_t h = q.head_.load(O::acquire);
        if (tail_floor_ <= h) reload_floor<O>(q.tail_, tail_floor_);
        const std::uint64_t cur = q.domain_.read(&q.cells_[h % q.cap_]);
        if (h != q.head_.load(O::acquire)) continue;
        if (cur != kBot) {
          // Tail still at h: ticket h's enqueuer has written but not yet
          // advanced tail. Help it before vacating (see the header): a ⊥
          // under a current ticket passes a second enqueuer's tail
          // comparand.
          if (tail_floor_ <= h) {
            help_advance<O>(q.tail_, tail_floor_, patience);
            continue;
          }
          if (th_.dcss(&q.cells_[h % q.cap_], cur, kBot, &q.head_, h)) {
            out[0] = cur;
            h0 = h;
            break;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
          backoff.pause();
          continue;
        }
        // Empty verdict: the domain read (acquire) saw ⊥ at the head
        // ticket and tail agrees (freshness argument).
        if (tail_floor_ <= h) return 0;  // empty
        // Ticket h already dequeued: help head_ past it.
        help_advance<O>(q.head_, h, patience);
      }
      std::size_t k = 1;
      while (k < n && k < q.cap_) {
        const std::uint64_t h = h0 + k;
        if (tail_floor_ <= h) {
          reload_floor<O>(q.tail_, tail_floor_);
          // Empty, or ticket h's tail not yet advanced.
          if (tail_floor_ <= h) break;
        }
        std::atomic<std::uint64_t>* cell = &q.cells_[h % q.cap_];
        const std::uint64_t cur = q.domain_.read(cell);
        if (cur == kBot) break;  // another dequeuer took ticket h
        // Wrap bracket: η ≤ h after the cell read, or cur may be a
        // round-(r+1) value; the DCSS lands only while head_ holds η.
        const std::uint64_t eta = q.head_.load(O::acquire);
        if (eta > h) break;
        if (!th_.dcss(cell, cur, kBot, &q.head_, eta)) {
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
  };

 private:
  friend class Handle;

  const std::size_t cap_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  BasicDcssDomain<O> domain_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using DcssQueue = BasicDcssQueue<>;

}  // namespace membq
