// Baseline — Vyukov's bounded MPMC queue: one sequence word per slot.
//
// The canonical industrial design the paper files under Θ(C) overhead:
// every slot carries a 64-bit sequence number that encodes which round the
// slot is ready for, so enqueuers and dequeuers never touch a stale slot.
// Fast and simple, but the per-slot metadata is exactly the linear-in-C
// memory the paper's designs try to eliminate.
//
// Memory orders (policy `O`, default RingOrders). This queue was already
// written with Vyukov's canonical orders; the audit makes each pairing
// explicit:
//   * seq load: acquire — pairs with the opposite role's seq release
//     store, so a ticket owner that sees its round's sequence also sees
//     the non-atomic cell.value write behind it. This pairing is the
//     whole queue: the value word itself is plain memory.
//   * seq store: release — publishes cell.value (enqueue) or the slot's
//     vacancy for the wrapped round (dequeue) to the seq acquire loads;
//     one store per slot of a reserved range, never one per range.
//   * head_/tail_ loads and CASes: relaxed — the counters are pure
//     ticket allocators here. A stale position costs a retry; the CAS
//     that wins ticket t is ordered against the slot by the seq pairing,
//     not by the counter. (This is the one ring whose counters need no
//     release/acquire: nothing reads a counter to infer slot state —
//     the full/empty verdicts come from the slot's own seq word.)
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/topology.hpp"
#include "sync/memory_order.hpp"
#include "telemetry/counters.hpp"

namespace membq {

template <class O = RingOrders>
class BasicVyukovQueue {
 public:
  static constexpr char kName[] = "vyukov(perslot-seq)";

  // The ignored topo::MemPolicySpec tag has one user,
  // membq-bench/src/panel.hpp, whose sharded row passes it to every shard.
  explicit BasicVyukovQueue(std::size_t capacity,
                            const topo::MemPolicySpec& = {})
      : cap_(capacity), cells_(std::make_unique<Cell[]>(capacity)) {
    assert(capacity > 0);
    for (std::size_t i = 0; i < capacity; ++i) {
      // Pre-publication initialization.
      cells_[i].seq.store(i, O::init);
    }
  }

  std::size_t capacity() const noexcept { return cap_; }

  // Scalar ops are bulk(n=1): each direction has exactly one body.
  bool try_enqueue(std::uint64_t v) noexcept {
    return try_enqueue_bulk(&v, 1) == 1;
  }
  bool try_dequeue(std::uint64_t& out) noexcept {
    return try_dequeue_bulk(&out, 1) == 1;
  }

  // Enqueue: scan the slots ready for tickets pos..pos+k-1, reserve them
  // with ONE relaxed CAS `tail_: pos → pos+k`, then write the k values
  // and publish each slot with its own release seq store. The first slot
  // is the whole protocol at n=1; the rest amortize the CAS and the scan
  // over a batch.
  //
  // Ownership argument for the scan-then-CAS: the acquire scan saw
  // seq == pos+i for every i < k, i.e. every slot ready for exactly round
  // pos+i. Winning the CAS at tail_ == pos means no other enqueuer holds
  // any ticket in [pos, pos+k) — a competitor must advance tail_ past pos
  // first — and a dequeuer never touches a slot whose seq it hasn't seen
  // published (seq == ticket+1), so the scanned slots stay ours even
  // though the scan happened before the reservation.
  [[gnu::always_inline]] std::size_t try_enqueue_bulk(
      const std::uint64_t* vs, std::size_t n) noexcept {
    if (n == 0) return 0;
    telemetry::count(telemetry::Counter::k_enq_attempt);
    // Position hint only; staleness is corrected by the CAS below.
    std::uint64_t pos = tail_.load(O::relaxed);
    for (;;) {
      const std::size_t first = pos % cap_;
      // Acquire: pairs with the dequeuer's release seq store for the
      // previous round — seeing seq == pos means the slot's earlier
      // value was fully consumed before we overwrite cell.value.
      const std::uint64_t seq0 = cells_[first].seq.load(O::acquire);
      const std::int64_t dif0 = static_cast<std::int64_t>(seq0) -
                                static_cast<std::int64_t>(pos);
      if (dif0 < 0) return 0;  // slot still holds the previous round: full
      if (dif0 != 0) {
        pos = tail_.load(O::relaxed);
        continue;
      }
      std::size_t k = 1;
      for (std::size_t i = next_slot(first); k < n && k < cap_;
           i = next_slot(i), ++k) {
        // Full at this slot, or claimed.
        if (cells_[i].seq.load(O::acquire) != pos + k) break;
      }
      // Ticket allocation: relaxed CAS — winning the tickets carries no
      // data; the slot handoff is entirely the seq pairing. A failed CAS
      // reloads pos.
      if (tail_.compare_exchange_weak(pos, pos + k, O::relaxed)) {
        for (std::size_t j = 0, i = first; j < k; ++j, i = next_slot(i)) {
          cells_[i].value = vs[j];
          // Release: publishes cell.value to this round's dequeuer. One
          // store per slot: each consumer acquires only its own slot's
          // seq word, so a single trailing release on the last slot
          // would leave slots 0..k-2 unpaired.
          cells_[i].seq.store(pos + j + 1, O::release);
        }
        return k;
      }
      telemetry::count(telemetry::Counter::k_cas_fail);
    }
  }

  // Dequeue mirror: the scan acquire-loads each slot's published seq
  // (pos+i+1), then one relaxed CAS `head_: pos → pos+k` reserves the
  // range. Ownership mirrors the enqueue: a competing dequeuer must
  // advance head_ first, and no enqueuer touches a slot before its
  // wrapped-round seq (pos+i+cap_) appears — which only we will store.
  [[gnu::always_inline]] std::size_t try_dequeue_bulk(
      std::uint64_t* out, std::size_t n) noexcept {
    if (n == 0) return 0;
    telemetry::count(telemetry::Counter::k_deq_attempt);
    std::uint64_t pos = head_.load(O::relaxed);
    for (;;) {
      const std::size_t first = pos % cap_;
      // Acquire: pairs with the enqueuer's release seq store — seeing
      // seq == pos + 1 makes the non-atomic cell.value reads below safe.
      const std::uint64_t seq0 = cells_[first].seq.load(O::acquire);
      const std::int64_t dif0 = static_cast<std::int64_t>(seq0) -
                                static_cast<std::int64_t>(pos + 1);
      if (dif0 < 0) return 0;  // slot not yet published: empty
      if (dif0 != 0) {
        pos = head_.load(O::relaxed);
        continue;
      }
      std::size_t k = 1;
      for (std::size_t i = next_slot(first); k < n && k < cap_;
           i = next_slot(i), ++k) {
        // Not yet published, or claimed.
        if (cells_[i].seq.load(O::acquire) != pos + k + 1) break;
      }
      if (head_.compare_exchange_weak(pos, pos + k, O::relaxed)) {
        for (std::size_t j = 0, i = first; j < k; ++j, i = next_slot(i)) {
          out[j] = cells_[i].value;
          // Release: publishes the vacancy (and our cell.value read) to
          // the wrapped round's enqueuer — per slot, since that enqueuer
          // acquires this slot's seq alone.
          cells_[i].seq.store(pos + j + cap_, O::release);
        }
        return k;
      }
      telemetry::count(telemetry::Counter::k_cas_fail);
    }
  }

  class Handle {
   public:
    explicit Handle(BasicVyukovQueue& q) noexcept : q_(q) {}
    bool try_enqueue(std::uint64_t v) noexcept { return q_.try_enqueue(v); }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return q_.try_dequeue(out);
    }
    std::size_t try_enqueue_bulk(const std::uint64_t* vs,
                                 std::size_t n) noexcept {
      return q_.try_enqueue_bulk(vs, n);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) noexcept {
      return q_.try_dequeue_bulk(out, n);
    }

   private:
    BasicVyukovQueue& q_;
  };

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    std::uint64_t value = 0;  // plain word; guarded by the seq pairing
  };

  // The slot after `i`: a range walks the ring with one compare per slot
  // and a single division for its first ticket.
  std::size_t next_slot(std::size_t i) const noexcept {
    return i + 1 == cap_ ? 0 : i + 1;
  }

  const std::size_t cap_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// Build-selected default realization (see sync/memory_order.hpp).
using VyukovQueue = BasicVyukovQueue<>;

}  // namespace membq
