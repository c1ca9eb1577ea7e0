// L2 — bounded ring under the distinct-values assumption, Θ(1) overhead.
//
// Each cell is one 64-bit word holding either a user value (bit 63 clear)
// or a versioned bottom ⊥_r (bit 63 set, round number in the low bits).
// Because applications never enqueue the same value twice concurrently,
// a CAS from a concrete value cannot ABA, and the round number inside ⊥
// rejects stale enqueues — so the only memory beyond the C element words
// is the two positioning counters: Θ(1).
//
// The protocol is the ticket ring of queues/ticket_ring.hpp; this header
// is its cell. The claim ⊥_r → v and the vacate v → ⊥_{r+1} are each one
// CAS of the cell word.
//
// Memory orders (policy `O`, default RingOrders):
//   * cell CAS (⊥_r → v and v → ⊥_{r+1}): acq_rel on success. The release
//     half publishes the transition to the opposite role's acquire cell
//     load; the acquire half orders the CAS after the counter loads that
//     justified it. Failure is relaxed — a failed transition is retried
//     from fresh loads or cuts the batch, and its observed value is
//     discarded.
//   * cell load: acquire — observes the slot CAS releases of both roles,
//     so a thread that sees ⊥_{r+1} (resp. a value) also sees every write
//     the vacating dequeuer (resp. publishing enqueuer) made before it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "queues/ticket_ring.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

template <class O>
class DistinctCells {
 public:
  static constexpr char kName[] = "distinct(L2)";
  using Word = std::uint64_t;
  struct Local {
    explicit Local(DistinctCells&) noexcept {}
  };

  static constexpr std::uint64_t bot(std::uint64_t round) noexcept {
    return (std::uint64_t{1} << 63) | round;
  }
  static std::uint64_t value(Word w) noexcept { return w; }

  explicit DistinctCells(std::size_t capacity)
      : cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)) {
    // Pre-publication: the constructor finishes before any other thread
    // can hold a reference.
    for (std::size_t i = 0; i < capacity; ++i) cells_[i].store(bot(0), O::init);
  }

  Word read(std::size_t i) const noexcept { return cells_[i].load(O::acquire); }
  bool claim(std::size_t i, Word w, std::uint64_t v) noexcept {
    if (cells_[i].compare_exchange_strong(w, v, O::acq_rel, O::relaxed)) {
      return true;
    }
    telemetry::count(telemetry::Counter::k_cas_fail);
    return false;
  }
  bool vacate(Local&, std::size_t i, Word w, std::uint64_t bot,
              const std::atomic<std::uint64_t>&, std::uint64_t) noexcept {
    return claim(i, w, bot);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
};

template <class O = RingOrders>
using BasicDistinctQueue = BasicTicketRing<DistinctCells<O>, O>;

// Build-selected default realization (see sync/memory_order.hpp).
using DistinctQueue = BasicDistinctQueue<>;

}  // namespace membq
