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
// Memory orders (policy `O`, default RingOrders): the cell transitions
// are ll()/sc() on BasicLLSCCell<O> — acquire link loads against acq_rel
// publishing sc()s, annotated in sync/llsc.hpp. The positioning counters
// follow the same pairing as the L2 ring:
//   * head_/tail_ load: acquire — pairs with advance()'s release, so a
//     ticket derived from an advanced counter happens-after the cell
//     transition that let the counter advance.
//   * counter floors: each Handle keeps the last value it loaded of the
//     other role's counter (head_ when enqueuing, tail_ when dequeuing)
//     and reloads it, with the acquire load above at the same site, only
//     when the floor fails its gate (`t − floor ≥ C`, `floor ≤ h`). The
//     counters are monotone, so a floor only lags: a stale floor makes a
//     gate stricter, never looser, and every full, empty or help-tail
//     verdict is taken on a fresh load. Floors are handle-local, like the
//     tickets t and h, not shared memory.
//   * advance() CAS: release on success (publishes the transition at
//     ticket `seen`), relaxed on failure (lost the helping race, nothing
//     observed).
//   * the full/empty verdicts rely on counter/cell freshness beyond the
//     pairings (per-location coherence); see sync/memory_order.hpp and
//     the litmus suite.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/topo_alloc.hpp"
#include "sync/backoff.hpp"
#include "telemetry/counters.hpp"
#include "sync/llsc.hpp"
#include "sync/memory_order.hpp"

namespace membq {

template <class O = RingOrders>
class BasicLlscQueue {
 public:
  static constexpr char kName[] = "llsc(L3)";
  static constexpr std::uint64_t kBot = ~std::uint64_t{0};

  explicit BasicLlscQueue(
      std::size_t capacity,
      const topo::MemPolicySpec& pol = topo::default_mem_policy())
      : cap_(capacity), cells_(capacity, pol) {
    assert(capacity > 0);
    for (auto& c : cells_) {
      const auto link = c.ll();
      c.sc(link, kBot);
    }
  }

  std::size_t capacity() const noexcept { return cap_; }

  // Where the slot array actually landed (policy, hugepage, node).
  topo::Placement placement() const noexcept { return cells_.placement(); }

  // The per-thread access point and the only entry point: it carries the
  // two counter floors (see the header comment).
  class Handle {
   public:
    explicit Handle(BasicLlscQueue& q) noexcept : q_(q) {}
    bool try_enqueue(std::uint64_t v) noexcept {
      return q_.enqueue(v, head_floor_);
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return q_.dequeue(out, tail_floor_);
    }

   private:
    BasicLlscQueue& q_;
    std::uint64_t head_floor_ = 0;  // a head_ value this handle loaded
    std::uint64_t tail_floor_ = 0;  // a tail_ value this handle loaded
  };

 private:
  // `hf`: the handle's head floor, reloaded only when `t − hf ≥ C`.
  bool enqueue(std::uint64_t v, std::uint64_t& hf) noexcept {
    assert(v != kBot && "kBot is reserved");
    // SC misses surface in llsc_sc_fail (counted inside the cell), so
    // this queue contributes attempts here and retries there.
    telemetry::count(telemetry::Counter::k_enq_attempt);
    Backoff backoff;
    for (;;) {
      // Acquire ticket loads paired with advance()'s release (header).
      const std::uint64_t t = tail_.load(O::acquire);
      if (t - hf >= cap_) reload(head_, hf);
      const typename BasicLLSCCell<O>::Link link = cells_[t % cap_].ll();
      if (t != tail_.load(O::acquire)) continue;
      if (link.value == kBot) {
        // Same fullness gate as the value branch: ⊥ may mean a vacated
        // cell whose dequeuer has not yet advanced head; writing a
        // wrapped value there would overlap a still-serving head ticket.
        if (t - hf >= cap_) return false;
        // sc publishes v with release; any staleness in `link` (another
        // thread stored since our ll) fails the sc via the stamp.
        if (cells_[t % cap_].sc(link, v)) {
          advance(tail_, t);
          return true;
        }
        backoff.pause();
        continue;
      }
      if (t - hf >= cap_) return false;  // full
      advance(tail_, t);                 // ticket t already written; help
    }
  }

  // `tf`: the handle's tail floor, reloaded only when `tf ≤ h`.
  bool dequeue(std::uint64_t& out, std::uint64_t& tf) noexcept {
    telemetry::count(telemetry::Counter::k_deq_attempt);
    Backoff backoff;
    for (;;) {
      const std::uint64_t h = head_.load(O::acquire);
      if (tf <= h) reload(tail_, tf);
      const typename BasicLLSCCell<O>::Link link = cells_[h % cap_].ll();
      if (h != head_.load(O::acquire)) continue;
      if (link.value != kBot) {
        // Tail still at h: ticket h's enqueuer has written but not yet
        // advanced tail. Help it before vacating (see the header): a ⊥
        // under a current ticket lets a second enqueuer fill the cell,
        // a round behind head.
        if (tf <= h) {
          advance(tail_, tf);
          continue;
        }
        if (cells_[h % cap_].sc(link, kBot)) {
          advance(head_, h);
          out = link.value;
          return true;
        }
        backoff.pause();
        continue;
      }
      // Empty verdict: the acquire ll() saw ⊥ at the head ticket (no
      // enqueue of ticket h had published) and tail agrees (freshness
      // argument on the monotone counter).
      if (tf <= h) return false;  // empty
      advance(head_, h);          // ticket h already dequeued; help
    }
  }

  static void advance(std::atomic<std::uint64_t>& counter,
                      std::uint64_t seen) noexcept {
    std::uint64_t expected = seen;
    // Release on success / relaxed on failure; same helping-CAS contract
    // as the L2 ring (see queues/distinct_queue.hpp).
    counter.compare_exchange_strong(expected, seen + 1, O::release,
                                    O::relaxed);
  }
  // Reload a handle's floor of `counter`: the acquire load a gate used to
  // make on every call, now made only when the floor fails the gate.
  static void reload(const std::atomic<std::uint64_t>& counter,
                     std::uint64_t& floor) noexcept {
    floor = counter.load(O::acquire);
    telemetry::count(telemetry::Counter::k_floor_reload);
  }

  const std::size_t cap_;
  topo::TopoArray<BasicLLSCCell<O>> cells_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using LlscQueue = BasicLlscQueue<>;

}  // namespace membq
