// L1 (lock-free) — Michael–Scott-style segment chain over an SMR domain.
//
// The same memory shape as the mutex SegmentQueue (linked segments of K
// slots, overhead Θ(C/K + T·K) with the T·K term now the reclamation
// backlog instead of a recycling pool), but every path is lock-free:
//
//   * head_/tail_ are CAS-advanced segment pointers; the chain is
//     append-only, so both only ever move forward along it.
//   * every slot has a position: its segment's `base` plus its index.
//     Within a segment, enqueuers claim runs of slots by CAS on `enq` and
//     dequeuers claim read tickets by fetch_add on `deq`; a slot goes
//     kEmpty -> value (enqueue CAS) or kEmpty -> kPoison (a dequeuer that
//     outran its enqueuer, or a full verdict that found the enqueuer
//     stalled, burns it, and the enqueuer's value moves on to its next
//     claimed slot). Segments are used once and retired — no in-place
//     wraparound, so no ABA on slots.
//   * a drained segment is unlinked by the head CAS and handed to the
//     reclamation domain; the dequeuer helps tail_ past the segment first,
//     so a retired segment is never reachable from either root (the
//     invariant the hazard-pointer validation loop relies on).
//
// Boundedness comes from positions, not from a size counter: each
// handle claims only below its claim limit, a position that leaves room
// for at most C values from the dequeue position on. Both verdicts count
// values, never claims, which makes them exact: "empty" is every claim
// already taken by a dequeue, and "full" is C values from the dequeue
// position on (full_or_limit), where a claim still unfilled after
// kHelpPatience is burned. An enqueue counts once its value lands in a
// slot, so a claimer stalled between its claim and its CAS is in neither
// verdict. The burn-on-lateness idiom is LCRQ's (Morrison & Afek,
// PPoPP'13).
//
// Hazard slots (HazardDomain): slot 0 holds head_'s segment, for the
// dequeue and for the full verdict's walk; slot 1 holds tail_'s segment
// for the enqueue, and the segment the walk is in.
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
#include "sync/backoff.hpp"
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

// Defined by the tests only: it claims a slot and never fills it, and
// reads slots by position.
struct LockFreeSegmentQueuePeer;

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

 private:
  static constexpr std::uint64_t kNoPosition = ~std::uint64_t{0};

  // An enqueuing handle's view of the positions from the dequeue
  // position D on. Every position below `end`, from the D of the walk
  // that set it, was seen settled: a value or burned. A settled slot
  // keeps its state until a dequeue takes its ticket, so the next full
  // verdict resumes the walk at `end` instead of at D.
  struct Claims {
    std::uint64_t limit;  // first position this handle may not claim
    std::uint64_t end = 0;
    std::uint64_t dead = 0;  // burned positions below end ...
    std::uint64_t first_dead = kNoPosition;  // ... none of them below this
  };

 public:
  class Handle {
   public:
    explicit Handle(LockFreeSegmentQueue& q)
        : q_(q), h_(q.domain_), claims_{q.cap_} {}

    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) { return try_enqueue_bulk(&v, 1) == 1; }
    bool try_dequeue(std::uint64_t& out) {
      return try_dequeue_bulk(&out, 1) == 1;
    }
    std::size_t try_enqueue_bulk(const std::uint64_t* vs, std::size_t n) {
      return q_.enqueue_bulk(h_, claims_, vs, n);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) {
      return q_.dequeue_bulk(h_, out, n);
    }

    // Drain this thread's reclamation backlog (tests, shutdown).
    void flush_reclamation() { h_.flush(); }

   private:
    LockFreeSegmentQueue& q_;
    typename Domain::ThreadHandle h_;
    Claims claims_;
  };

 private:
  friend class Handle;
  friend struct LockFreeSegmentQueuePeer;

  struct Segment {
    std::atomic<Segment*> next{nullptr};
    std::uint64_t base = 0;  // position of slot 0; written before publication
    alignas(64) std::atomic<std::uint64_t> enq{0};  // slots claimed (<= K)
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

  // The dequeue position: the first position whose read ticket no
  // dequeue holds. Only head_'s segment hands out tickets, so the read
  // is exact while head_ is `hd`.
  std::uint64_t dequeue_position(Segment* hd) const noexcept {
    const std::uint64_t d = hd->deq.load(std::memory_order_acquire);
    return hd->base + (d < seg_size_ ? d : seg_size_);
  }

  // The slow path of an enqueue whose claims reached its limit: the full
  // verdict (true), or a new claim limit (false). `t` is the tail segment
  // the caller protected and `claimed` its `enq` as the caller loaded it.
  // Reads the dequeue position D at one instant, then walks on from
  // `c.end`, counting values and burned slots. A claimed slot still
  // unfilled after kHelpPatience pauses belongs to a stalled claimer and
  // is burned: its value has not counted yet, and moves on to its
  // claimer's next slot.
  //   * C values from D on is the full verdict: at the D read if the walk
  //     saw all of them before it, else at the walk's end if D has not
  //     moved, since values never leave a slot a dequeue has not reached.
  //   * An unclaimed position ends the walk: every position before it
  //     is a value or dead for good, so at most C minus the values
  //     counted can land from there on, and the limit becomes
  //     D + C + the burned positions from D on. In t, a slot at or past
  //     `claimed` counts as unclaimed: if a claim has taken it since, the
  //     new limit is only smaller than it could be, and the caller comes
  //     back with a fresh `claimed`.
  // The walk state survives the call, so a repeat verdict reads only the
  // slots settled since; it starts over at D only when D has passed
  // `c.end` or a burned position (their count from D on is then unknown).
  // Burning, rather than filling, a stalled claim keeps every value at a
  // position its own enqueue claimed, so position order respects the
  // real-time order of enqueues.
  bool full_or_limit(typename Domain::ThreadHandle& h, Claims& c, Segment* t,
                     std::uint64_t claimed) {
    for (;;) {
      Segment* const hd = h.protect(0, head_);
      const std::uint64_t pos0 = dequeue_position(hd);
      if (head_.load(std::memory_order_acquire) != hd) continue;
      if (pos0 > c.end || pos0 > c.first_dead) {
        c.end = pos0;
        c.dead = 0;
        c.first_dead = kNoPosition;
      }
      std::uint64_t values = c.end - pos0 - c.dead;
      if (values >= cap_) return true;

      // Start at t when it holds c.end or lies between hd and c.end, else
      // at hd. t is usable only while slot 1 still protects it, that is,
      // until the walk's first step.
      Segment* s = t != nullptr && t->base >= hd->base && t->base <= c.end
                       ? t
                       : hd;
      bool unclaimed = false;
      while (values < cap_) {
        if (c.end >= s->base + seg_size_) {
          Segment* next = s->next.load(std::memory_order_acquire);
          if (next == nullptr) {
            unclaimed = true;
            break;
          }
          // hd still head_ after the publication keeps next unretired.
          h.set(1, next);
          t = nullptr;
          if (head_.load(std::memory_order_acquire) != hd) break;
          s = next;
          continue;
        }
        const std::uint64_t j = c.end - s->base;
        if (s == t && j >= claimed) {
          unclaimed = true;
          break;
        }
        auto& slot = s->slots()[j];
        std::uint64_t cur = slot.load(std::memory_order_acquire);
        if (cur == kEmpty) {
          if (s != t && j >= s->enq.load(std::memory_order_acquire)) {
            unclaimed = true;
            break;
          }
          for (std::uint32_t k = 0; cur == kEmpty && k < kHelpPatience; ++k) {
            detail::cpu_relax();
            cur = slot.load(std::memory_order_acquire);
          }
          // A failed burn leaves what landed first in cur.
          if (cur == kEmpty &&
              slot.compare_exchange_strong(cur, kPoison,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            cur = kPoison;
          }
        }
        if (cur != kPoison) {
          ++values;
        } else if (c.dead++ == 0) {
          c.first_dead = c.end;
        }
        ++c.end;
      }
      if (unclaimed) {
        c.limit = pos0 + cap_ + c.dead;
        return false;
      }
      if (values >= cap_ && head_.load(std::memory_order_acquire) == hd &&
          dequeue_position(hd) == pos0) {
        return true;
      }
      // head_ or D moved: what the walk saw stays settled, so read D
      // again and go on from c.end.
    }
  }

  // Enqueue: claim a run of the tail segment with one CAS of `enq` (m = 1
  // for a single value), then CAS each claimed slot kEmpty → value. A
  // claimed slot found burned (by a dequeuer that outran us, or by a full
  // verdict that found us stalled) moves the pending value on to the next
  // claimed one. A run ending at the segment end appends a fresh segment
  // with as much of the batch pre-installed as fits, so one append CAS
  // fills those positions.
  //
  // Claims stop before the handle's claim limit, which keeps at most C
  // values from the dequeue position on. When the claims reach it,
  // full_or_limit() gives the full verdict or a new limit. A value counts
  // once its slot CAS lands, never at the claim, so a stalled claimer is
  // in neither verdict. Returns the accepted prefix; stops at the full
  // verdict.
  std::size_t enqueue_bulk(typename Domain::ThreadHandle& h, Claims& c,
                           const std::uint64_t* vs, std::size_t n) {
    telemetry::count(telemetry::Counter::k_enq_attempt);
    if (n == 0) return 0;
#ifndef NDEBUG
    for (std::size_t i = 0; i < n; ++i) {
      assert((vs[i] & kEmpty) == 0 && "bit 63 is reserved for slot encodings");
    }
#endif
    typename Domain::ThreadHandle::Guard g(h);
    std::size_t placed = 0;
    while (placed < n) {
      Segment* t = h.protect(1, tail_);
      std::uint64_t i = t->enq.load(std::memory_order_acquire);
      const std::uint64_t lim =
          c.limit <= t->base ? 0
          : c.limit - t->base < seg_size_
              ? c.limit - t->base
              : static_cast<std::uint64_t>(seg_size_);
      if (i < lim) {
        const std::uint64_t want = static_cast<std::uint64_t>(n - placed);
        const std::uint64_t m = lim - i < want ? lim - i : want;
        if (!t->enq.compare_exchange_strong(i, i + m,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
          telemetry::count(telemetry::Counter::k_cas_fail);
          continue;
        }
        auto* sl = t->slots();
        for (std::uint64_t j = i; j < i + m; ++j) {
          std::uint64_t empty = kEmpty;
          if (sl[j].compare_exchange_strong(empty, vs[placed],
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            ++placed;
          } else {
            telemetry::count(telemetry::Counter::k_cas_fail);
          }
        }
        continue;
      }
      if (i < seg_size_ || c.limit <= t->base + seg_size_) {
        if (full_or_limit(h, c, t, i)) break;
        continue;
      }
      Segment* next = t->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // tail_ lags behind the chain; help it forward and retry.
        tail_.compare_exchange_strong(t, next);
        continue;
      }
      // t is claimed to its end and last: append, pre-installing as much
      // of the batch as fits and the limit allows.
      const std::uint64_t e = t->base + seg_size_;
      std::size_t m = n - placed < seg_size_ ? n - placed : seg_size_;
      if (c.limit - e < m) m = static_cast<std::size_t>(c.limit - e);
      Segment* s = alloc_segment();
      for (std::size_t k = 0; k < m; ++k) {
        // Relaxed is sound here: s is still thread-private; the release
        // half of the append CAS below publishes these stores to anyone
        // who acquires next (and, transitively, tail_/head_).
        s->slots()[k].store(vs[placed + k], std::memory_order_relaxed);
      }
      s->base = e;
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
    return placed;
  }

  // Dequeue: grab read tickets in ranges (`deq.fetch_add(take)`, take = 1
  // for a single value) up to the claims. Each claimed ticket spins for
  // its value, then burns (kEmpty → kPoison) a ticket whose enqueuer is
  // absent; burned tickets yield no value and the loop claims more. Every
  // claim below `enq` taken by a dequeue, and nothing claimed past it, is
  // the empty verdict: values only land in claimed slots. Returns the
  // received prefix; stops at the empty verdict.
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
      if (d >= e) {
        if (e < seg_size_) break;  // head segment not yet claimed out: empty
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
      // Ticket-range grab: up to the claims in one FAA. Tickets past
      // seg_size_ are overshoot; the drained path above handles them.
      const std::uint64_t want = static_cast<std::uint64_t>(n - got);
      const std::uint64_t take = want < e - d ? want : e - d;
      const std::uint64_t i =
          hd->deq.fetch_add(take, std::memory_order_acq_rel);
      for (std::uint64_t j = i; j < i + take && j < seg_size_; ++j) {
        auto& slot = hd->slots()[j];
        std::uint64_t v = slot.load(std::memory_order_acquire);
        for (int spin = 0; v == kEmpty && spin < kSpinsBeforePoison; ++spin) {
          // One yield near the end of the spin window: if the missing
          // enqueuer was preempted between its claim and its slot CAS
          // (guaranteed on a single CPU), this lets the value land
          // instead of burning the ticket and cascading segment churn.
          // Progress never depends on it — the burn path stays lock-free.
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
          v = empty;  // the CAS lost: the value landed, or a full verdict
                      // burned the ticket first
        }
        if (v == kPoison) continue;
        out[got++] = v;
      }
    }
    return got;
  }

  const std::size_t cap_;
  const std::size_t seg_size_;
  Domain domain_;
  alignas(64) std::atomic<Segment*> head_{nullptr};
  alignas(64) std::atomic<Segment*> tail_{nullptr};
};

using EbrSegmentQueue = LockFreeSegmentQueue<reclaim::EpochDomain>;
using HpSegmentQueue = LockFreeSegmentQueue<reclaim::HazardDomain>;

}  // namespace membq
