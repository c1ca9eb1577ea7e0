// L1 (lock-free) — Michael–Scott-style segment chain over an SMR domain.
//
// The same memory shape as the mutex SegmentQueue (linked segments of K
// slots, overhead Θ(C/K + T·K) with the T·K term now the reclamation
// backlog instead of a recycling pool), but every path is lock-free:
//
//   * head_/tail_ are CAS-advanced segment pointers; the chain is
//     append-only, so both only ever move forward along it.
//   * within a segment, enqueuers claim write tickets and dequeuers claim
//     read tickets by fetch_add; a slot goes kEmpty -> value (enqueue CAS)
//     or kEmpty -> kPoison (a dequeuer that outran its enqueuer burns the
//     ticket and the enqueuer retries at a later slot). Segments are used
//     once and retired — no in-place wraparound, so no ABA on slots.
//   * a drained segment is unlinked by the head CAS and handed to the
//     reclamation domain; the dequeuer helps tail_ past the segment first,
//     so a retired segment is never reachable from either root (the
//     invariant the hazard-pointer validation loop relies on).
//
// Boundedness uses the same approximate reservation counter as the
// Michael–Scott baseline: an enqueue reserves its values in size_ up
// front and backs out the part past capacity.
//
// Values must keep bit 63 clear (the kEmpty/kPoison encodings), the same
// contract as the DCSS-managed words elsewhere in membq.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>

#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "telemetry/counters.hpp"

namespace membq {

// Registry/bench display names per backend; the primary template is left
// undefined so an unnamed backend fails at compile time.
template <class Domain>
struct LockFreeSegmentQueueName;

template <>
struct LockFreeSegmentQueueName<reclaim::EpochDomain> {
  static constexpr char value[] = "segment(L1,ebr)";
};
template <>
struct LockFreeSegmentQueueName<reclaim::HazardDomain> {
  static constexpr char value[] = "segment(L1,hp)";
};

template <class Domain = reclaim::EpochDomain>
class LockFreeSegmentQueue {
 public:
  static constexpr const char* kName =
      LockFreeSegmentQueueName<Domain>::value;
  static constexpr std::uint64_t kEmpty = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kPoison = (std::uint64_t{1} << 63) | 1;

  // seg_size == 0 picks the paper's K = floor(sqrt(capacity)).
  explicit LockFreeSegmentQueue(
      std::size_t capacity, std::size_t seg_size = 0,
      std::size_t max_threads = Domain::kDefaultMaxThreads)
      : cap_(capacity),
        seg_size_(seg_size != 0 ? seg_size : default_seg_size(capacity)),
        domain_(max_threads) {
    assert(capacity > 0);
    Segment* s = alloc_segment();
    // Pre-publication: the constructor finishes before any Handle exists.
    head_.store(s, std::memory_order_relaxed);
    tail_.store(s, std::memory_order_relaxed);
  }

  ~LockFreeSegmentQueue() {
    // Acquire loads, even though destruction must not race with live
    // handles: the last appender may have published a segment (release
    // CAS on next) from a thread whose join/synchronization the caller
    // provides out of band. If that external happens-before edge is ever
    // weaker than a full join (e.g. a relaxed "done" flag), relaxed loads
    // here could walk a chain whose next pointers are not yet visible and
    // leak the tail segments. Acquire pairs with the append CAS's release
    // and keeps the walk self-sufficient.
    Segment* s = head_.load(std::memory_order_acquire);
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_acquire);
      Segment::destroy(s);
      s = next;
    }
    // domain_'s destructor frees the retired backlog.
  }

  LockFreeSegmentQueue(const LockFreeSegmentQueue&) = delete;
  LockFreeSegmentQueue& operator=(const LockFreeSegmentQueue&) = delete;

  std::size_t capacity() const noexcept { return cap_; }
  std::size_t seg_size() const noexcept { return seg_size_; }
  std::size_t segment_bytes() const noexcept {
    return sizeof(Segment) + seg_size_ * sizeof(std::atomic<std::uint64_t>);
  }

  const Domain& domain() const noexcept { return domain_; }

  // Retired-but-unreclaimed backlog: live heap the overhead accounting
  // must not charge as algorithmic overhead.
  std::size_t retired_bytes() const noexcept {
    return domain_.retired_bytes();
  }

  class Handle {
   public:
    explicit Handle(LockFreeSegmentQueue& q) : q_(q), h_(q.domain_) {}

    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) { return try_enqueue_bulk(&v, 1) == 1; }
    bool try_dequeue(std::uint64_t& out) {
      return try_dequeue_bulk(&out, 1) == 1;
    }
    std::size_t try_enqueue_bulk(const std::uint64_t* vs, std::size_t n) {
      return q_.enqueue_bulk(h_, vs, n);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) {
      return q_.dequeue_bulk(h_, out, n);
    }

    // Drain this thread's reclamation backlog (tests, shutdown).
    void flush_reclamation() { h_.flush(); }

   private:
    LockFreeSegmentQueue& q_;
    typename Domain::ThreadHandle h_;
  };

 private:
  friend class Handle;

  struct Segment {
    std::atomic<Segment*> next{nullptr};
    alignas(64) std::atomic<std::uint64_t> enq{0};  // next write ticket
    alignas(64) std::atomic<std::uint64_t> deq{0};  // next read ticket

    std::atomic<std::uint64_t>* slots() noexcept {
      return reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1);
    }

    static void destroy(void* p) noexcept {
      // Slots are trivially destructible.
      static_cast<Segment*>(p)->~Segment();
      ::operator delete(p, std::align_val_t{alignof(Segment)});
    }
  };

  static constexpr int kSpinsBeforePoison = 128;

  static std::size_t default_seg_size(std::size_t capacity) noexcept {
    std::size_t k = 1;
    while ((k + 1) * (k + 1) <= capacity) ++k;
    return k;
  }

  Segment* alloc_segment() const {
    // One block per segment: the header, then its K slots. The
    // cache-line alignas on the ticket counters over-aligns Segment past
    // the default allocator guarantee, so the block asks for it.
    Segment* s = new (::operator new(segment_bytes(),
                                     std::align_val_t{alignof(Segment)}))
        Segment();
    auto* sl = s->slots();
    for (std::size_t i = 0; i < seg_size_; ++i) {
      new (&sl[i]) std::atomic<std::uint64_t>(kEmpty);
    }
    return s;
  }

  // Enqueue: ONE size_ reservation covers the whole accepted prefix, and
  // the fast path grabs write tickets in ranges (`enq.fetch_add(m)`, m = 1
  // for a single value). Each claimed ticket does its kEmpty → value CAS;
  // a poisoned slot just moves the pending value to the next ticket.
  // After the reservation succeeds the enqueue cannot fail, so the
  // return value is the reservation's accepted prefix.
  std::size_t enqueue_bulk(typename Domain::ThreadHandle& h,
                           const std::uint64_t* vs, std::size_t n) {
    telemetry::count(telemetry::Counter::k_enq_attempt);
    if (n == 0) return 0;
#ifndef NDEBUG
    for (std::size_t i = 0; i < n; ++i) {
      assert((vs[i] & kEmpty) == 0 && "bit 63 is reserved for slot encodings");
    }
#endif
    // One reservation for the batch; back out the part past capacity.
    const std::uint64_t old = size_.fetch_add(n, std::memory_order_acq_rel);
    std::size_t accept = 0;
    if (old < static_cast<std::uint64_t>(cap_)) {
      const std::uint64_t room = static_cast<std::uint64_t>(cap_) - old;
      accept = room < n ? static_cast<std::size_t>(room) : n;
    }
    if (accept < n) {
      size_.fetch_sub(n - accept, std::memory_order_acq_rel);
    }
    if (accept == 0) return 0;

    typename Domain::ThreadHandle::Guard g(h);
    std::size_t placed = 0;
    while (placed < accept) {
      Segment* t = h.protect(0, tail_);
      // Fast path: room in the tail segment. next can only become non-null
      // after enq reached seg_size_, so a ticket below the limit never
      // needs to look at it.
      std::uint64_t i = t->enq.load(std::memory_order_acquire);
      if (i < seg_size_) {
        // Ticket-range grab: claim up to the remaining batch in one FAA.
        // Tickets past seg_size_ are overshoot and fall through to the
        // slow path on the next iteration.
        const std::size_t want = accept - placed;
        const std::uint64_t avail = seg_size_ - i;
        const std::uint64_t m =
            want < avail ? static_cast<std::uint64_t>(want) : avail;
        i = t->enq.fetch_add(m, std::memory_order_acq_rel);
        for (std::uint64_t j = i; j < i + m && j < seg_size_; ++j) {
          std::uint64_t empty = kEmpty;
          if (t->slots()[j].compare_exchange_strong(
                  empty, vs[placed], std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            ++placed;
            if (placed == accept) break;
          } else {
            // Poisoned by an impatient dequeuer; the value moves on to
            // the next claimed ticket.
            telemetry::count(telemetry::Counter::k_cas_fail);
          }
        }
        continue;
      }
      Segment* next = t->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // tail_ lags behind the chain; help it forward and retry.
        tail_.compare_exchange_strong(t, next);
        continue;
      }
      // Segment exhausted: append a fresh one with as much of the pending
      // batch pre-installed as fits, so the winning appender finishes
      // those enqueues in the same step.
      Segment* s = alloc_segment();
      const std::size_t m = accept - placed < seg_size_ ? accept - placed
                                                        : seg_size_;
      for (std::size_t j = 0; j < m; ++j) {
        // Relaxed is sound here: s is still thread-private; the release
        // half of the append CAS below publishes these stores to anyone
        // who acquires next (and, transitively, tail_/head_).
        s->slots()[j].store(vs[placed + j], std::memory_order_relaxed);
      }
      s->enq.store(m, std::memory_order_relaxed);
      Segment* expected = nullptr;
      if (t->next.compare_exchange_strong(expected, s,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(t, s);
        placed += m;
        continue;
      }
      Segment::destroy(s);  // lost the append race; s was never published
      telemetry::count(telemetry::Counter::k_cas_fail);
      tail_.compare_exchange_strong(t, expected);
    }
    return accept;
  }

  // Dequeue: grab read tickets in ranges (`deq.fetch_add(take)`, take = 1
  // for a single value) and decrement size_ ONCE per round. Each claimed
  // ticket spins for its value, then poisons an absent enqueuer; burned
  // tickets yield no value and the loop claims more. Returns the received
  // prefix; stops at the empty verdict.
  std::size_t dequeue_bulk(typename Domain::ThreadHandle& h,
                           std::uint64_t* out, std::size_t n) {
    telemetry::count(telemetry::Counter::k_deq_attempt);
    if (n == 0) return 0;
    typename Domain::ThreadHandle::Guard g(h);
    std::size_t got = 0;
    while (got < n) {
      Segment* hd = h.protect(0, head_);
      const std::uint64_t d = hd->deq.load(std::memory_order_acquire);
      const std::uint64_t e = hd->enq.load(std::memory_order_acquire);
      const std::uint64_t lim = e < seg_size_ ? e : seg_size_;
      if (d >= lim) {
        if (lim < seg_size_) break;  // head segment not yet full: empty
        Segment* next = hd->next.load(std::memory_order_acquire);
        if (next == nullptr) break;  // fully drained, nothing after
        // Help tail_ past hd before unlinking it: a retired segment must
        // never be reachable from either root.
        Segment* t = tail_.load(std::memory_order_acquire);
        if (t == hd) tail_.compare_exchange_strong(t, next);
        Segment* expected = hd;
        if (head_.compare_exchange_strong(expected, next)) {
          h.retire(hd, segment_bytes(), &Segment::destroy);
        }
        continue;
      }
      // Ticket-range grab: up to the published window in one FAA. Tickets
      // past seg_size_ are overshoot; the drained path above handles them.
      const std::uint64_t want = static_cast<std::uint64_t>(n - got);
      const std::uint64_t avail = lim - d;
      const std::uint64_t take = want < avail ? want : avail;
      const std::uint64_t i =
          hd->deq.fetch_add(take, std::memory_order_acq_rel);
      std::size_t round = 0;
      for (std::uint64_t j = i; j < i + take && j < seg_size_; ++j) {
        auto& slot = hd->slots()[j];
        std::uint64_t v = slot.load(std::memory_order_acquire);
        for (int spin = 0; v == kEmpty && spin < kSpinsBeforePoison; ++spin) {
          // One yield near the end of the spin window: if the missing
          // enqueuer was preempted between its ticket and its slot CAS
          // (guaranteed on a single CPU), this lets the value land
          // instead of burning the ticket and cascading segment churn.
          // Progress never depends on it — the poison path stays
          // lock-free.
          if (spin == kSpinsBeforePoison / 2) std::this_thread::yield();
          v = slot.load(std::memory_order_acquire);
        }
        if (v == kEmpty) {
          std::uint64_t empty = kEmpty;
          if (slot.compare_exchange_strong(empty, kPoison,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            continue;  // ticket burned; its enqueuer retries elsewhere
          }
          v = empty;  // the CAS lost because the value just landed
        }
        out[got + round] = v;
        ++round;
      }
      if (round > 0) {
        got += round;
        size_.fetch_sub(round, std::memory_order_acq_rel);
      }
    }
    return got;
  }

  const std::size_t cap_;
  const std::size_t seg_size_;
  Domain domain_;
  alignas(64) std::atomic<Segment*> head_{nullptr};
  alignas(64) std::atomic<Segment*> tail_{nullptr};
  alignas(64) std::atomic<std::uint64_t> size_{0};
};

using EbrSegmentQueue = LockFreeSegmentQueue<reclaim::EpochDomain>;
using HpSegmentQueue = LockFreeSegmentQueue<reclaim::HazardDomain>;

}  // namespace membq
