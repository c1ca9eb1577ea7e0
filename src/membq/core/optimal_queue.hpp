// L5 — the memory-optimal bounded queue: Θ(T) overhead, Θ(T) time.
//
// Matching the paper's lower bound, the only state beyond the C element
// words is per-thread: an announcement array with one slot per handle.
// Threads publish their operation (enqueue with its argument, or dequeue)
// in their announcement slot; whoever holds the combiner latch scans all
// T slots and applies the announced operations to a bare ring (plain
// element array + head/tail indices, no per-slot metadata). Every
// operation therefore pays a Θ(T) announcement scan — the time/memory
// trade-off bench_optimal_scaling measures — while the structure itself
// stays at Θ(T) words of overhead.
//
// This is a combining realization of the paper's announcement-array
// design: simpler than the lock-free original (readElem/findOp), with the
// same memory class and the same Θ(T) operation cost. A lock-free L5 is an
// open item in ROADMAP.md.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>

#include "telemetry/counters.hpp"

namespace membq {

class OptimalQueue {
 public:
  static constexpr char kName[] = "optimal(L5)";

  OptimalQueue(std::size_t capacity, std::size_t max_threads)
      : cap_(capacity),
        max_threads_(max_threads == 0 ? 1 : max_threads),
        values_(std::make_unique<std::uint64_t[]>(capacity)),
        slots_(std::make_unique<Slot[]>(max_threads_)),
        slot_used_(new std::atomic<bool>[max_threads_]) {
    assert(capacity > 0);
    for (std::size_t i = 0; i < max_threads_; ++i) {
      slot_used_[i].store(false, std::memory_order_relaxed);
    }
  }

  OptimalQueue(const OptimalQueue&) = delete;
  OptimalQueue& operator=(const OptimalQueue&) = delete;

  std::size_t capacity() const noexcept { return cap_; }
  std::size_t max_threads() const noexcept { return max_threads_; }

  class Handle {
   public:
    explicit Handle(OptimalQueue& q) : q_(q), slot_(q.acquire_slot()) {}
    ~Handle() { q_.release_slot(slot_); }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool try_enqueue(std::uint64_t v) noexcept {
      telemetry::count(telemetry::Counter::k_enq_attempt);
      std::uint64_t result;
      return q_.announce(slot_, kEnqueue, v, result) == kDone;
    }

    bool try_dequeue(std::uint64_t& out) noexcept {
      telemetry::count(telemetry::Counter::k_deq_attempt);
      std::uint64_t result;
      if (q_.announce(slot_, kDequeue, 0, result) != kDone) return false;
      out = result;
      return true;
    }

   private:
    OptimalQueue& q_;
    std::size_t slot_;
  };

 private:
  friend class Handle;

  // Announcement protocol words. kIdle → request → kDone/kFailed, then the
  // announcing thread resets to kIdle.
  enum Op : std::uint64_t {
    kIdle = 0,
    kEnqueue = 1,
    kDequeue = 2,
    kDone = 3,    // op applied; for dequeue, arg holds the element
    kFailed = 4,  // queue full (enqueue) or empty (dequeue)
  };

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> op{kIdle};
    std::atomic<std::uint64_t> arg{0};
  };

  // Publishes the request and spins until a combiner serves it. `result`
  // receives the dequeued element (kDone dequeues). The argument word is
  // read back *before* the slot is reset to kIdle: once kIdle is visible
  // the slot can be released and recycled by another handle, whose first
  // announce overwrites `arg` — a caller that read the result only after
  // announce() returned could observe the recycler's argument instead.
  std::uint64_t announce(std::size_t slot, Op op, std::uint64_t arg,
                         std::uint64_t& result) noexcept {
    Slot& s = slots_[slot];
    s.arg.store(arg, std::memory_order_relaxed);
    s.op.store(op, std::memory_order_release);
    for (;;) {
      const std::uint64_t state = s.op.load(std::memory_order_acquire);
      if (state == kDone || state == kFailed) {
        result = s.arg.load(std::memory_order_relaxed);
        s.op.store(kIdle, std::memory_order_relaxed);
        return state;
      }
      if (!latch_.exchange(true, std::memory_order_acquire)) {
        combine();
        latch_.store(false, std::memory_order_release);
      } else {
        std::this_thread::yield();
      }
    }
  }

  // Serve every announced operation. Runs under latch_; the ring state
  // (values_, head_, tail_) is only ever touched here.
  void combine() noexcept {
    for (std::size_t i = 0; i < max_threads_; ++i) {
      Slot& s = slots_[i];
      const std::uint64_t op = s.op.load(std::memory_order_acquire);
      if (op == kEnqueue) {
        if (tail_ - head_ < cap_) {
          values_[tail_ % cap_] = s.arg.load(std::memory_order_relaxed);
          ++tail_;
          s.op.store(kDone, std::memory_order_release);
        } else {
          s.op.store(kFailed, std::memory_order_release);
        }
      } else if (op == kDequeue) {
        if (tail_ - head_ > 0) {
          s.arg.store(values_[head_ % cap_], std::memory_order_relaxed);
          ++head_;
          s.op.store(kDone, std::memory_order_release);
        } else {
          s.op.store(kFailed, std::memory_order_release);
        }
      }
    }
  }

  std::size_t acquire_slot() {
    for (std::size_t i = 0; i < max_threads_; ++i) {
      if (!slot_used_[i].exchange(true, std::memory_order_acq_rel)) {
        return i;
      }
    }
    throw std::runtime_error(
        "OptimalQueue: more live Handles than max_threads");
  }

  void release_slot(std::size_t slot) noexcept {
    slots_[slot].op.store(kIdle, std::memory_order_relaxed);
    slot_used_[slot].store(false, std::memory_order_release);
  }

  const std::size_t cap_;
  const std::size_t max_threads_;
  std::unique_ptr<std::uint64_t[]> values_;  // the C element words
  std::unique_ptr<Slot[]> slots_;            // Θ(T) announcement array
  std::unique_ptr<std::atomic<bool>[]> slot_used_;
  std::atomic<bool> latch_{false};
  // Combiner-private ring indices (guarded by latch_).
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace membq
