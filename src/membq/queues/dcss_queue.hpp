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
// the dequeuer's ticket (the first claim) or the wrap bracket's η (a
// claim past it). The memory price is the DCSS descriptor pool: one
// descriptor per thread, Θ(T).
//
// The protocol is the ticket ring of queues/ticket_ring.hpp; this header
// is its cell, and a handle's descriptor slot is its handle-local state.
// A failed claim CAS or vacate DCSS counts cas_fail.
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
//     release, and its verdict reads head_ with O::acquire inside the
//     marker window (pairings annotated in sync/dcss.cpp), so a vacate
//     lands only if head_ still holds its comparand at its linearization
//     point.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "queues/ticket_ring.hpp"
#include "sync/dcss.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

template <class O>
class DcssCells {
 public:
  static constexpr char kName[] = "dcss(L4)";
  using Word = std::uint64_t;
  struct Local {
    explicit Local(DcssCells& c) : th(c.domain_) {}
    typename BasicDcssDomain<O>::ThreadHandle th;
  };

  // Bit 62 flags a ⊥, whose low bits hold its round. Values stay below it.
  static constexpr std::uint64_t bot(std::uint64_t round) noexcept {
    return (std::uint64_t{1} << 62) | round;
  }
  static std::uint64_t value(Word w) noexcept { return w; }

  explicit DcssCells(
      std::size_t capacity,
      std::size_t max_threads = BasicDcssDomain<O>::kDefaultMaxThreads)
      : cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
        domain_(max_threads) {
    // Pre-publication initialization: every cell starts at ⊥_0.
    for (std::size_t i = 0; i < capacity; ++i) cells_[i].store(bot(0), O::init);
  }

  Word read(std::size_t i) noexcept { return domain_.read(&cells_[i]); }
  bool claim(std::size_t i, Word w, std::uint64_t v) noexcept {
    if (cells_[i].compare_exchange_strong(w, v, O::acq_rel, O::relaxed)) {
      return true;
    }
    telemetry::count(telemetry::Counter::k_cas_fail);
    return false;
  }
  bool vacate(Local& local, std::size_t i, Word w, std::uint64_t bot,
              const std::atomic<std::uint64_t>& head,
              std::uint64_t eta) noexcept {
    if (local.th.dcss(&cells_[i], w, bot, &head, eta)) return true;
    telemetry::count(telemetry::Counter::k_cas_fail);
    return false;
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  BasicDcssDomain<O> domain_;
};

template <class O = RingOrders>
using BasicDcssQueue = BasicTicketRing<DcssCells<O>, O>;

// Build-selected default realization (see sync/memory_order.hpp).
using DcssQueue = BasicDcssQueue<>;

}  // namespace membq
