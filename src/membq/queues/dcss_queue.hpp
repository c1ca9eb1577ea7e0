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
// Memory orders (policy `O`, default RingOrders): the cell transitions go
// through BasicDcssDomain<O> — read() is an acquire of the cell, dcss()
// resolves with a release, and the decision reads the counter inside the
// marker window (pairings annotated in sync/dcss.cpp). The counters here
// follow the same pairing as the other rings:
//   * head_/tail_ load: acquire — pairs with advance()'s release.
//   * counter floors: as in the L3 ring, each Handle keeps the last value
//     it loaded of the other role's counter and reloads it (the acquire
//     load above, same site) only when the floor fails its gate
//     (`t − floor ≥ C`, `floor ≤ h`). A floor only lags its monotone
//     counter, so it makes a gate stricter, never looser; every full,
//     empty or help-tail verdict is taken on a fresh load. Floors are
//     handle-local state, not shared memory: the Θ(T) is still the
//     descriptor pool alone.
//   * advance() CAS: release on success, relaxed on failure (helping
//     race lost, nothing observed).
//   * full/empty verdicts rely on counter/cell freshness beyond the
//     pairings (per-location coherence; see sync/memory_order.hpp). The
//     stale-ticket protection itself does NOT: that is the DCSS second
//     comparand, which is what this design exists to demonstrate.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/topo_alloc.hpp"
#include "sync/backoff.hpp"
#include "telemetry/counters.hpp"
#include "sync/dcss.hpp"
#include "sync/memory_order.hpp"

namespace membq {

template <class O = RingOrders>
class BasicDcssQueue {
 public:
  static constexpr char kName[] = "dcss(L4)";
  // Bit 63 is the DCSS marker bit; ⊥ lives just below it.
  static constexpr std::uint64_t kBot = std::uint64_t{1} << 62;

  explicit BasicDcssQueue(
      std::size_t capacity,
      std::size_t max_threads = BasicDcssDomain<O>::kDefaultMaxThreads,
      const topo::MemPolicySpec& pol = topo::default_mem_policy())
      : cap_(capacity), cells_(capacity, pol), domain_(max_threads) {
    assert(capacity > 0);
    // Pre-publication initialization.
    for (auto& c : cells_) c.store(kBot, O::init);
  }

  std::size_t capacity() const noexcept { return cap_; }

  // Where the slot array actually landed (policy, hugepage, node).
  topo::Placement placement() const noexcept { return cells_.placement(); }
  BasicDcssDomain<O>& domain() noexcept { return domain_; }

  class Handle {
   public:
    explicit Handle(BasicDcssQueue& q) : q_(q), th_(q.domain_) {}

    bool try_enqueue(std::uint64_t v) noexcept {
      assert(v < kBot && "values must stay below the reserved range");
      telemetry::count(telemetry::Counter::k_enq_attempt);
      Backoff backoff;
      BasicDcssQueue& q = q_;
      for (;;) {
        // Acquire ticket loads paired with advance()'s release (header).
        const std::uint64_t t = q.tail_.load(O::acquire);
        if (t - head_floor_ >= q.cap_) reload(q.head_, head_floor_);
        const std::uint64_t cur = q.domain_.read(&q.cells_[t % q.cap_]);
        if (t != q.tail_.load(O::acquire)) continue;
        if (cur == kBot) {
          // Fullness gate on the empty-cell path: ⊥ may mean a vacated
          // cell whose dequeuer has not yet advanced head (the DCSS only
          // guards tail, not head).
          if (t - head_floor_ >= q.cap_) return false;
          if (th_.dcss(&q.cells_[t % q.cap_], kBot, v, &q.tail_, t)) {
            advance(q.tail_, t);
            return true;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
          backoff.pause();
          continue;
        }
        if (t - head_floor_ >= q.cap_) return false;  // full
        advance(q.tail_, t);  // ticket t already written; help
      }
    }

    bool try_dequeue(std::uint64_t& out) noexcept {
      telemetry::count(telemetry::Counter::k_deq_attempt);
      Backoff backoff;
      BasicDcssQueue& q = q_;
      for (;;) {
        const std::uint64_t h = q.head_.load(O::acquire);
        if (tail_floor_ <= h) reload(q.tail_, tail_floor_);
        const std::uint64_t cur = q.domain_.read(&q.cells_[h % q.cap_]);
        if (h != q.head_.load(O::acquire)) continue;
        if (cur != kBot) {
          // Tail still at h: ticket h's enqueuer has written but not yet
          // advanced tail. Help it before vacating (see the header): a ⊥
          // under a current ticket passes a second enqueuer's tail
          // comparand.
          if (tail_floor_ <= h) {
            advance(q.tail_, tail_floor_);
            continue;
          }
          if (th_.dcss(&q.cells_[h % q.cap_], cur, kBot, &q.head_, h)) {
            advance(q.head_, h);
            out = cur;
            return true;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
          backoff.pause();
          continue;
        }
        // Empty verdict: the domain read (acquire) saw ⊥ at the head
        // ticket and tail agrees (freshness argument).
        if (tail_floor_ <= h) return false;  // empty
        advance(q.head_, h);                 // ticket h already dequeued; help
      }
    }

   private:
    BasicDcssQueue& q_;
    typename BasicDcssDomain<O>::ThreadHandle th_;
    std::uint64_t head_floor_ = 0;  // a head_ value this handle loaded
    std::uint64_t tail_floor_ = 0;  // a tail_ value this handle loaded
  };

 private:
  friend class Handle;

  static void advance(std::atomic<std::uint64_t>& counter,
                      std::uint64_t seen) noexcept {
    std::uint64_t expected = seen;
    // Release on success / relaxed on failure; same helping-CAS contract
    // as the L2 ring. NOTE: the DCSS decision load of this counter reads
    // it through O::acquire inside the marker window; the release here
    // is what the window observes.
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
  topo::TopoArray<std::atomic<std::uint64_t>> cells_;
  BasicDcssDomain<O> domain_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using DcssQueue = BasicDcssQueue<>;

}  // namespace membq
