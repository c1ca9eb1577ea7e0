// L1 — segment-based bounded queue, overhead Θ(C/K + T·K).
//
// The infinite-array simulation from Listing 1: elements live in linked
// segments of K slots; the live chain carries ceil(size/K)+1 segments and
// drained segments are recycled through a small pool (capped at one spare
// per thread, the "segments in flight" term). Overhead is therefore
// ~ (C/K) segment headers + T·K pooled slots. A header is one word here,
// like a slot, so the sum is minimized near K = √(C/T), the paper's
// K = √C at a fixed T.
//
// This realization serializes with an internal mutex: the paper's memory
// trade-off is the reproduction target here, and a GC-free lock-free
// segment chain needs a reclamation scheme (see ROADMAP open items).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>

#include "telemetry/counters.hpp"

namespace membq {

class SegmentQueue {
 public:
  static constexpr char kName[] = "segment(L1)";

  // seg_size == 0 picks the paper's K = floor(sqrt(capacity)).
  explicit SegmentQueue(std::size_t capacity, std::size_t seg_size = 0,
                        std::size_t pool_segments = 4)
      : cap_(capacity),
        seg_size_(seg_size != 0 ? seg_size : default_seg_size(capacity)),
        pool_cap_(pool_segments) {
    assert(capacity > 0);
    head_seg_ = tail_seg_ = alloc_segment();
  }

  ~SegmentQueue() {
    Segment* s = head_seg_;
    while (s != nullptr) {
      Segment* next = s->next;
      free_segment(s);
      s = next;
    }
    s = pool_;
    while (s != nullptr) {
      Segment* next = s->next;
      free_segment(s);
      s = next;
    }
  }

  SegmentQueue(const SegmentQueue&) = delete;
  SegmentQueue& operator=(const SegmentQueue&) = delete;

  std::size_t capacity() const noexcept { return cap_; }
  std::size_t seg_size() const noexcept { return seg_size_; }

  std::size_t size() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  // Bytes currently holding user elements, for overhead accounting: the
  // measured footprint minus this is the queue's structural overhead.
  std::size_t element_bytes() const noexcept {
    return size() * sizeof(std::uint64_t);
  }

  // Closed-form Θ(C/K + T·K) model from §2.1: chain headers plus one
  // pooled segment per thread, in the bytes the counting allocator sees
  // (requested bytes: a header is sizeof(Segment), no allocator
  // bookkeeping). Its minimum lies near K = √(C/T).
  static std::size_t predicted_overhead_bytes(std::size_t capacity,
                                              std::size_t seg_size,
                                              std::size_t threads) noexcept {
    const std::size_t header = sizeof(Segment);
    const std::size_t chain_segments = (capacity + seg_size - 1) / seg_size + 1;
    return chain_segments * header +
           threads * (seg_size * sizeof(std::uint64_t) + header);
  }

  // Scalar ops are bulk(n=1): each direction has exactly one body.
  bool try_enqueue(std::uint64_t v) { return try_enqueue_bulk(&v, 1) == 1; }
  bool try_dequeue(std::uint64_t& out) {
    return try_dequeue_bulk(&out, 1) == 1;
  }

  // Bulk ops: the whole batch under ONE lock acquisition — for a mutex
  // queue the lock is the publication cost, so this is its amortization.
  std::size_t try_enqueue_bulk(const std::uint64_t* vs, std::size_t n) {
    telemetry::count(telemetry::Counter::k_enq_attempt);
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t done = 0;
    while (done < n && size_ < cap_) {
      if (tail_idx_ == seg_size_) {
        Segment* s = take_segment();
        tail_seg_->next = s;
        tail_seg_ = s;
        tail_idx_ = 0;
      }
      tail_seg_->slots()[tail_idx_++] = vs[done++];
      ++size_;
    }
    return done;
  }

  std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) {
    telemetry::count(telemetry::Counter::k_deq_attempt);
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t done = 0;
    while (done < n && size_ > 0) {
      if (head_idx_ == seg_size_) {
        Segment* drained = head_seg_;
        head_seg_ = head_seg_->next;
        assert(head_seg_ != nullptr);
        recycle_segment(drained);
        head_idx_ = 0;
      }
      out[done++] = head_seg_->slots()[head_idx_++];
      --size_;
    }
    return done;
  }

  class Handle {
   public:
    explicit Handle(SegmentQueue& q) noexcept : q_(q) {}
    bool try_enqueue(std::uint64_t v) { return q_.try_enqueue(v); }
    bool try_dequeue(std::uint64_t& out) { return q_.try_dequeue(out); }
    std::size_t try_enqueue_bulk(const std::uint64_t* vs, std::size_t n) {
      return q_.try_enqueue_bulk(vs, n);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) {
      return q_.try_dequeue_bulk(out, n);
    }

   private:
    SegmentQueue& q_;
  };

 private:
  struct Segment {
    Segment* next = nullptr;
    std::uint64_t* slots() noexcept {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
  };

  static std::size_t default_seg_size(std::size_t capacity) noexcept {
    std::size_t k = 1;
    while ((k + 1) * (k + 1) <= capacity) ++k;
    return k;
  }

  // One block per segment: the header, then its K slots.
  Segment* alloc_segment() const {
    return new (::operator new(sizeof(Segment) +
                               seg_size_ * sizeof(std::uint64_t)))
        Segment();
  }

  static void free_segment(Segment* s) noexcept {
    s->~Segment();
    ::operator delete(s);
  }

  Segment* take_segment() {
    if (pool_ != nullptr) {
      Segment* s = pool_;
      pool_ = s->next;
      --pool_count_;
      s->next = nullptr;
      return s;
    }
    return alloc_segment();
  }

  void recycle_segment(Segment* s) noexcept {
    if (pool_count_ < pool_cap_) {
      s->next = pool_;
      pool_ = s;
      ++pool_count_;
    } else {
      free_segment(s);
    }
  }

  const std::size_t cap_;
  const std::size_t seg_size_;
  const std::size_t pool_cap_;

  mutable std::mutex mu_;
  Segment* head_seg_ = nullptr;
  Segment* tail_seg_ = nullptr;
  std::size_t head_idx_ = 0;
  std::size_t tail_idx_ = 0;
  std::size_t size_ = 0;
  Segment* pool_ = nullptr;
  std::size_t pool_count_ = 0;
};

}  // namespace membq
