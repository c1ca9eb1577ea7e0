// Baseline — Michael–Scott linked queue, node per element: Θ(n) overhead.
//
// The classic lock-free queue the paper uses as the memory-unfriendly
// extreme: every element costs a heap node plus a next pointer. Bounded
// here by node positions so it fits the try_enqueue/try_dequeue harness:
// each node carries its position in the chain (its predecessor's + 1),
// so the queue holds tail.pos - head.pos values, head_ being the dummy.
// An enqueue links its node only while that count stays at most C, and
// reports full only when the count, read at one instant, is C.
//
// Plain 64-bit head/tail CASes: dequeued dummies are retired to an
// EpochDomain (reclaim/epoch.hpp, the registry's `ebr` backend), which
// frees a node only once no thread can still hold a pointer to it, so
// neither ABA nor use-after-free needs counted pointers.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "reclaim/epoch.hpp"
#include "telemetry/counters.hpp"

namespace membq {

class MichaelScottQueue {
 public:
  static constexpr char kName[] = "michael-scott";

  explicit MichaelScottQueue(
      std::size_t capacity,
      std::size_t max_threads = reclaim::EpochDomain::kDefaultMaxThreads)
      : cap_(capacity), domain_(max_threads) {
    assert(capacity > 0);
    Node* dummy = new Node();
    head_.store(dummy, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  ~MichaelScottQueue() {
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
    // domain_'s destructor frees the retired backlog.
  }

  MichaelScottQueue(const MichaelScottQueue&) = delete;
  MichaelScottQueue& operator=(const MichaelScottQueue&) = delete;

  std::size_t capacity() const noexcept { return cap_; }

  std::size_t retired_bytes() const noexcept {
    return domain_.retired_bytes();
  }

  class Handle {
   public:
    explicit Handle(MichaelScottQueue& q) : q_(q), h_(q.domain_) {}

    bool try_enqueue(std::uint64_t v) { return q_.enqueue(h_, floor_, v); }
    bool try_dequeue(std::uint64_t& out) { return q_.dequeue(h_, out); }

   private:
    MichaelScottQueue& q_;
    reclaim::EpochDomain::ThreadHandle h_;
    // A position head_'s node had once. Head positions only grow, so it
    // stays a lower bound; the gate reloads it only when it would refuse.
    std::uint64_t floor_ = 0;
  };

 private:
  friend class Handle;

  struct Node {
    std::atomic<std::uint64_t> value{0};
    std::atomic<Node*> next{nullptr};
    std::uint64_t pos = 0;  // written before the link CAS publishes it

    static void destroy(void* p) noexcept { delete static_cast<Node*>(p); }
  };

  // Links a node at t.pos + 1 only while t.pos + 1 - floor <= C, which
  // keeps at most C values in: the floor is at most head_'s position. The
  // full verdict is t.pos - hd.pos >= C, read while t->next is null
  // between two loads of head_ that both return hd. The node is allocated
  // only once the gate passes, so a refusal allocates nothing.
  bool enqueue(reclaim::EpochDomain::ThreadHandle& h, std::uint64_t& floor,
               std::uint64_t v) {
    telemetry::count(telemetry::Counter::k_enq_attempt);
    reclaim::EpochDomain::ThreadHandle::Guard g(h);
    Node* n = nullptr;
    for (;;) {
      Node* t = h.protect(0, tail_);
      Node* next = t->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        tail_.compare_exchange_strong(t, next);
        continue;
      }
      if (t->pos >= floor + cap_) {
        Node* hd = head_.load(std::memory_order_seq_cst);
        floor = hd->pos;
        if (t->pos >= floor + cap_) {
          if (t->next.load(std::memory_order_acquire) == nullptr &&
              head_.load(std::memory_order_seq_cst) == hd) {
            delete n;
            return false;  // full
          }
          continue;
        }
      }
      if (n == nullptr) {
        n = new Node();
        n->value.store(v, std::memory_order_relaxed);
      }
      n->pos = t->pos + 1;
      Node* expected = nullptr;
      if (t->next.compare_exchange_strong(expected, n,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(t, n);
        return true;
      }
      telemetry::count(telemetry::Counter::k_cas_fail);
      tail_.compare_exchange_strong(t, expected);
    }
  }

  bool dequeue(reclaim::EpochDomain::ThreadHandle& h, std::uint64_t& out) {
    telemetry::count(telemetry::Counter::k_deq_attempt);
    reclaim::EpochDomain::ThreadHandle::Guard g(h);
    for (;;) {
      Node* hd = h.protect(0, head_);
      Node* t = tail_.load(std::memory_order_acquire);
      Node* next = hd->next.load(std::memory_order_acquire);
      // Re-validate: hd, t and next form one snapshot only while head_
      // still equals hd.
      if (head_.load(std::memory_order_seq_cst) != hd) continue;
      if (next == nullptr) return false;  // empty
      if (hd == t) {
        tail_.compare_exchange_strong(t, next);
        continue;
      }
      const std::uint64_t v = next->value.load(std::memory_order_acquire);
      Node* expected = hd;
      if (head_.compare_exchange_strong(expected, next)) {
        h.retire(hd, sizeof(Node), &Node::destroy);
        out = v;
        return true;
      }
      telemetry::count(telemetry::Counter::k_cas_fail);
    }
  }

  const std::size_t cap_;
  reclaim::EpochDomain domain_;
  alignas(64) std::atomic<Node*> head_{nullptr};
  alignas(64) std::atomic<Node*> tail_{nullptr};
};

}  // namespace membq
