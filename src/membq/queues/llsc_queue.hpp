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
// could fill the cell again. For the same reason an enqueue claim past a
// bulk op's first takes a ⊥ only while a tail_ load made after the ll()
// is still ≤ t.
//
// The protocol is the ticket ring of queues/ticket_ring.hpp; this header
// is its cell. The claim ⊥ → v and the vacate v → ⊥ are each an sc() on
// the link the cell read took. A failed sc() counts llsc_sc_fail inside
// the cell, not cas_fail: this ring's lost claims and vacates show there.
//
// Memory orders (policy `O`, default RingOrders): the cell read is ll()
// and both transitions are sc() on BasicLLSCCell<O> — acquire link loads
// against acq_rel publishing sc()s, annotated in sync/llsc.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "queues/ticket_ring.hpp"
#include "sync/llsc.hpp"
#include "sync/memory_order.hpp"

namespace membq {

template <class O>
class LlscCells {
 public:
  static constexpr char kName[] = "llsc(L3)";
  using Word = typename BasicLLSCCell<O>::Link;
  struct Local {
    explicit Local(LlscCells&) noexcept {}
  };

  // The one ⊥ of every round.
  static constexpr std::uint64_t bot(std::uint64_t) noexcept {
    return ~std::uint64_t{0};
  }
  static std::uint64_t value(const Word& w) noexcept { return w.value; }

  explicit LlscCells(std::size_t capacity)
      : cells_(std::make_unique<BasicLLSCCell<O>[]>(capacity)) {
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].sc(cells_[i].ll(), bot(0));
    }
  }

  Word read(std::size_t i) const noexcept { return cells_[i].ll(); }
  bool claim(std::size_t i, const Word& w, std::uint64_t v) noexcept {
    return cells_[i].sc(w, v);
  }
  bool vacate(Local&, std::size_t i, const Word& w, std::uint64_t bot,
              const std::atomic<std::uint64_t>&, std::uint64_t) noexcept {
    return cells_[i].sc(w, bot);
  }

 private:
  std::unique_ptr<BasicLLSCCell<O>[]> cells_;
};

template <class O = RingOrders>
using BasicLlscQueue = BasicTicketRing<LlscCells<O>, O>;

// Build-selected default realization (see sync/memory_order.hpp).
using LlscQueue = BasicLlscQueue<>;

}  // namespace membq
