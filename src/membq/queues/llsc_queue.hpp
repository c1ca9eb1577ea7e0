// L3 — bounded ring over LL/SC cells, Θ(1) algorithmic overhead.
//
// Same ticket protocol as the L2 queue, but the cells are LL/SC cells and
// ⊥ is a single reserved word with no round number: the store-conditional
// fails for any thread whose load-linked snapshot is stale, so versioned
// bottoms are unnecessary. In the paper's model hardware LL/SC makes this
// queue Θ(1); our software emulation pays 8 bytes per cell for the stamp,
// reported separately as aux bytes in the overhead tables. Because ⊥
// carries no round, a dequeuer vacates ticket h only once tail has passed
// h (it helps tail first); otherwise a second enqueuer holding ticket h
// could fill the cell again.
//
// Bulk ops have L2's shape: the first claim is the whole scalar protocol,
// further cells t0+1, t0+2, … are claimed one at a time under the same
// gates and floors, and the counter then advances once, to at least
// t0+k. A scalar op is a bulk op of one. A claim past the first cannot
// confirm its ticket against the counter, which our own unadvanced
// claim holds back, and ⊥ names no round. So it needs two checks that
// L2's round-versioned ⊥ makes unnecessary:
//   * enqueue takes a ⊥ cell at ticket t only if a tail_ load made after
//     the ll() is still ≤ t. While our claim sat unadvanced, helpers may
//     have stepped tail_ to t, and another enqueuer may have written
//     ticket t, which a dequeuer then served. That ⊥ is ready for t+C;
//     writing it would land our value a round ahead. Serving t needs
//     tail_ > t first, so tail_ ≤ t after the ll() rules that out.
//   * dequeue vacates ticket h only once tail_ > h (the rule above, the
//     floor reloaded once) and only if a head_ load made after the ll()
//     is ≤ h: L2's wrap bracket, since a round-(r+1) enqueue of the cell
//     must first see head_ > h.
// The batch is cut only when another thread holds the next cell or a
// gate says full or empty.
//
// Help is patient. A thread that finds a served ticket under a lagging
// counter (tail_ still at a written cell, or head_ still at a vacated
// one; a dequeuer also needs tail_ past the written cell it is about to
// vacate) polls the counter for up to kHelpPatience pauses per call
// (help_advance, sync/counter.hpp) before it steps it. The lag is
// usually a bulk claim still in flight, and stepping past it at once
// would race its owner for the next cell and cut its batch.
//
// Memory orders (policy `O`, default RingOrders): the cell transitions
// are ll()/sc() on BasicLLSCCell<O> — acquire link loads against acq_rel
// publishing sc()s, annotated in sync/llsc.hpp. The positioning counters
// follow the same pairing as the L2 ring:
//   * head_/tail_ load: acquire — pairs with advance_counter()'s
//     release, so a ticket derived from an advanced counter
//     happens-after the cell transition that let the counter advance.
//   * counter floors: each Handle keeps the last value it loaded of the
//     other role's counter (head_ when enqueuing, tail_ when dequeuing)
//     and reloads it, with the acquire load above at the same site, only
//     when the floor fails its gate (`t − floor ≥ C`, `floor ≤ h`). The
//     counters are monotone, so a floor only lags: a stale floor makes a
//     gate stricter, never looser, and every full, empty or help-tail
//     verdict is taken on a fresh load. Floors are handle-local, like the
//     tickets t and h, not shared memory.
//   * advance_counter() CAS loop (sync/counter.hpp): release on success
//     (publishes the transitions below the new counter value), relaxed
//     on failure (lost the helping race, nothing observed). It moves the
//     counter to at least seen+k.
//   * help_advance() poll (sync/counter.hpp): relaxed loads of the
//     lagging counter while it still reads the served ticket. They only
//     decide whether to keep waiting: the step taken once the budget is
//     spent is advance_counter() above, and a counter seen to move is
//     re-read by the acquire load above before it is used.
//   * continuation checks (above): the tail_ load after an enqueue's ll()
//     and the head_ load after a dequeue's ll() are acquire loads, each
//     made after the cell read it judges.
//   * the full/empty verdicts rely on counter/cell freshness beyond the
//     pairings (per-location coherence); see sync/memory_order.hpp and
//     the litmus suite.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "sync/backoff.hpp"
#include "sync/counter.hpp"
#include "sync/llsc.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

template <class O = RingOrders>
class BasicLlscQueue {
 public:
  static constexpr char kName[] = "llsc(L3)";
  static constexpr std::uint64_t kBot = ~std::uint64_t{0};

  explicit BasicLlscQueue(std::size_t capacity)
      : cap_(capacity),
        cells_(std::make_unique<BasicLLSCCell<O>[]>(capacity)) {
    assert(capacity > 0);
    for (std::size_t i = 0; i < cap_; ++i) {
      const auto link = cells_[i].ll();
      cells_[i].sc(link, kBot);
    }
  }

  std::size_t capacity() const noexcept { return cap_; }

  // The per-thread access point and the only entry point: it carries the
  // two counter floors (see the header comment) and the contention
  // estimate that sizes its Backoff (sync/backoff.hpp).
  class Handle {
   public:
    explicit Handle(BasicLlscQueue& q) noexcept : q_(q) {}
    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) noexcept {
      return try_enqueue_bulk(&v, 1) == 1;
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }
    [[gnu::always_inline]] std::size_t try_enqueue_bulk(
        const std::uint64_t* vs, std::size_t n) noexcept {
      return q_.enqueue_bulk(vs, n, head_floor_, contention_);
    }
    [[gnu::always_inline]] std::size_t try_dequeue_bulk(
        std::uint64_t* out, std::size_t n) noexcept {
      return q_.dequeue_bulk(out, n, tail_floor_, contention_);
    }

   private:
    BasicLlscQueue& q_;
    std::uint64_t head_floor_ = 0;  // a head_ value this handle loaded
    std::uint64_t tail_floor_ = 0;  // a tail_ value this handle loaded
    std::uint32_t contention_ = 0;  // Backoff's share of calls that paused
  };

 private:
  // Enqueue: claim tickets t0, t0+1, … by ⊥ → v store-conditionals, then
  // advance tail_ once over the claimed range. `hf`: the handle's head
  // floor, reloaded only when `t − hf ≥ C`; `share`: its contention
  // estimate. Inlined, so that at a scalar call site (n = 1) the
  // continuation folds away and the first claim is the whole op.
  [[gnu::always_inline]] std::size_t enqueue_bulk(
      const std::uint64_t* vs, std::size_t n, std::uint64_t& hf,
      std::uint32_t& share) noexcept {
    if (n == 0) return 0;
    assert(vs[0] != kBot && "kBot is reserved");
    // SC misses surface in llsc_sc_fail (counted inside the cell), so
    // this queue contributes attempts here and retries there.
    telemetry::count(telemetry::Counter::k_enq_attempt);
    Backoff backoff(share);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t t0;
    for (;;) {  // first item: the whole protocol at n=1
      // Acquire ticket loads paired with advance_counter()'s release (header).
      const std::uint64_t t = tail_.load(O::acquire);
      if (t - hf >= cap_) reload_floor<O>(head_, hf);
      const typename BasicLLSCCell<O>::Link link = cells_[t % cap_].ll();
      if (t != tail_.load(O::acquire)) continue;
      if (link.value == kBot) {
        // Same fullness gate as the value branch: ⊥ may mean a vacated
        // cell whose dequeuer has not yet advanced head; writing a
        // wrapped value there would overlap a still-serving head ticket.
        if (t - hf >= cap_) return 0;
        // sc publishes v with release; any staleness in `link` (another
        // thread stored since our ll) fails the sc via the stamp.
        if (cells_[t % cap_].sc(link, vs[0])) {
          t0 = t;
          break;
        }
        backoff.pause();
        continue;
      }
      if (t - hf >= cap_) return 0;  // full
      help_advance<O>(tail_, t, patience);  // ticket t already written; help
    }
    std::size_t k = 1;
    while (k < n && k < cap_) {
      assert(vs[k] != kBot && "kBot is reserved");
      const std::uint64_t t = t0 + k;
      if (t - hf >= cap_) {
        reload_floor<O>(head_, hf);
        if (t - hf >= cap_) break;  // full
      }
      const typename BasicLLSCCell<O>::Link link = cells_[t % cap_].ll();
      if (link.value != kBot) break;  // another enqueuer holds ticket t
      // Round check (see the header): a ⊥ read while tail_ ≤ t is
      // ticket t's, not the vacancy of a ticket t already served.
      if (tail_.load(O::acquire) > t) break;
      if (!cells_[t % cap_].sc(link, vs[k])) break;
      ++k;
    }
    advance_counter<O>(tail_, t0, k);
    return k;
  }

  // Dequeue mirror. `tf`: the handle's tail floor, reloaded only when
  // `tf ≤ h`. A claim past the first keeps the tail rule and adds L2's
  // wrap bracket (see the header).
  [[gnu::always_inline]] std::size_t dequeue_bulk(
      std::uint64_t* out, std::size_t n, std::uint64_t& tf,
      std::uint32_t& share) noexcept {
    if (n == 0) return 0;
    telemetry::count(telemetry::Counter::k_deq_attempt);
    Backoff backoff(share);
    std::uint32_t patience = kHelpPatience;  // help_advance budget
    std::uint64_t h0;
    for (;;) {  // first item: the whole protocol at n=1
      const std::uint64_t h = head_.load(O::acquire);
      if (tf <= h) reload_floor<O>(tail_, tf);
      const typename BasicLLSCCell<O>::Link link = cells_[h % cap_].ll();
      if (h != head_.load(O::acquire)) continue;
      if (link.value != kBot) {
        // Tail still at h: ticket h's enqueuer has written but not yet
        // advanced tail. Help it before vacating (see the header): a ⊥
        // under a current ticket lets a second enqueuer fill the cell,
        // a round behind head.
        if (tf <= h) {
          help_advance<O>(tail_, tf, patience);
          continue;
        }
        if (cells_[h % cap_].sc(link, kBot)) {
          out[0] = link.value;
          h0 = h;
          break;
        }
        backoff.pause();
        continue;
      }
      // Empty verdict: the acquire ll() saw ⊥ at the head ticket (no
      // enqueue of ticket h had published) and tail agrees (freshness
      // argument on the monotone counter).
      if (tf <= h) return 0;  // empty
      help_advance<O>(head_, h, patience);  // ticket h already dequeued; help
    }
    std::size_t k = 1;
    while (k < n && k < cap_) {
      const std::uint64_t h = h0 + k;
      if (tf <= h) {
        reload_floor<O>(tail_, tf);
        if (tf <= h) break;  // empty, or ticket h's tail not yet advanced
      }
      const typename BasicLLSCCell<O>::Link link = cells_[h % cap_].ll();
      if (link.value == kBot) break;  // another dequeuer took ticket h
      if (head_.load(O::acquire) > h) break;  // wrap bracket (above)
      if (!cells_[h % cap_].sc(link, kBot)) break;
      out[k] = link.value;
      ++k;
    }
    advance_counter<O>(head_, h0, k);
    return k;
  }

  const std::size_t cap_;
  std::unique_ptr<BasicLLSCCell<O>[]> cells_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using LlscQueue = BasicLlscQueue<>;

}  // namespace membq
