// Sharded elastic MPMC layer: N instances of any registry queue behind a
// router. This is the "millions of users" front-end shape — per-shard
// contention drops by ~N while the paper's per-queue memory classes are
// preserved shard by shard (N shards of capacity C/N keep a Θ(C) design
// at Θ(C) total and a Θ(T) design at Θ(N·T) total, N a constant).
//
// Router policies (both compose in one adapter; docs/sharding.md is the
// normative write-up):
//
//   1. Per-producer shard affinity. Every Handle is assigned a home shard
//      (round-robin at construction, or explicitly). Enqueues go to the
//      home shard first, so one producer's values land in its home shard
//      in program order — this is what makes the relaxed-FIFO guarantee
//      below non-vacuous. Dequeues also start at home.
//   2. Ring-order sweep. What the home shard refuses (the suffix of a
//      batch it has no room for, or no values for) goes to home+1,
//      home+2, … in ring order, one bulk call per shard. An enqueue's
//      sweep is a spill, a dequeue's a steal; both follow this one rule,
//      and the router writes no shared word of its own per call.
//
// Guarantee (relaxed FIFO): the sharded queue is NOT globally
// linearizable to a bounded FIFO queue. It guarantees exactly-once
// delivery, no loss, per-shard bounds (total bound = N × per-shard
// bound), and per-producer-per-shard FIFO: for every (producer, shard)
// pair, the values that producer routed to that shard are dequeued from
// it in enqueue order. Each shard is a linearizable MPMC queue, which is
// also why stealing is safe: a steal is an ordinary dequeue on the victim
// shard, so it can neither double-deliver nor strand an element
// (tests/test_adversary_sharded.cpp runs the stealer-vs-owner schedule
// deterministically; tests/model_checker.hpp has the relaxed-FIFO
// checking mode).
//
// Empty/full semantics, precisely:
//   * try_enqueue returns false only after the home shard and then every
//     other shard, in ring order, each refused once during the sweep.
//     Single-threaded this makes "full" exact: it implies every shard
//     was full, i.e. exactly N × per-shard-capacity values are in.
//     Concurrently it is best-effort like any bounded queue's full
//     verdict (a racing dequeue may free a slot mid-sweep).
//   * try_dequeue returns false only after a full steal sweep. Same
//     exactness single-threaded, same best-effort caveat concurrently.
//
// Telemetry: shard_affinity_hit (items served by the handle's home
// shard), shard_steal (dequeued items served by a non-home shard);
// membq_perf's traced run reports both as sharded.* metrics.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/topology.hpp"
#include "telemetry/counters.hpp"
#include "workload/bulk.hpp"

namespace membq {
namespace sharded {

template <class Q>
class ShardedQueue {
 public:
  // Registry rows override this with "sharded(<base>,N)"; the symbol only
  // exists so run_workload's generic plumbing compiles.
  static constexpr char kName[] = "sharded";

  // `make(per_shard_capacity)` builds one shard. The per-shard bound is
  // ⌈capacity / shards⌉ (at least 1), so the total capacity is
  // shards × ⌈capacity / shards⌉ ≥ the requested capacity — a bounded
  // queue may legally hold a little more than asked, never less. All
  // shards are the same size: the router never fakes a fractional bound
  // by leaving one shard a different size.
  // The floor of 1 is arithmetic only — a base with a stricter minimum
  // keeps its own requirement. In particular per-slot-sequence rings
  // (Vyukov) need capacity ≥ 2: at one slot the "enqueued round r"
  // (pos+1) and "vacated round r" (pos+cap) sequence encodings collide
  // and a full ring accepts. Provision capacity ≥ 2N over such bases.
  template <class MakeShard>
  ShardedQueue(std::size_t capacity, std::size_t shards, MakeShard make)
      : per_shard_(std::max<std::size_t>(
            1, (capacity + std::max<std::size_t>(1, shards) - 1) /
                   std::max<std::size_t>(1, shards))) {
    const std::size_t n = std::max<std::size_t>(1, shards);
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // make(per_shard, spec) has one user, membq-bench/src/panel.hpp;
      // the topo::MemPolicySpec it receives is an empty tag.
      if constexpr (std::is_invocable_v<MakeShard, std::size_t,
                                        const topo::MemPolicySpec&>) {
        shards_.push_back(make(per_shard_, topo::MemPolicySpec{}));
      } else {
        shards_.push_back(make(per_shard_));
      }
    }
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t per_shard_capacity() const noexcept { return per_shard_; }
  std::size_t capacity() const noexcept {
    return per_shard_ * shards_.size();
  }

  class Handle {
   public:
    // Round-robin home assignment: consecutive handles (one per worker
    // thread in the driver) spread across the shards.
    explicit Handle(ShardedQueue& q)
        : Handle(q, q.next_home_.fetch_add(1, std::memory_order_relaxed)) {}

    // Explicit home, for tests that pin consumers onto one shard
    // (steal-storm) or pin a producer/consumer pair apart.
    Handle(ShardedQueue& q, std::size_t home)
        : q_(q), home_(home % q.shards_.size()) {
      handles_.reserve(q.shards_.size());
      for (auto& s : q.shards_) {
        handles_.push_back(std::make_unique<typename Q::Handle>(*s));
      }
    }

    // Scalar ops are bulk(n=1): the router has one path per direction.
    bool try_enqueue(std::uint64_t v) noexcept {
      return try_enqueue_bulk(&v, 1) == 1;
    }
    bool try_dequeue(std::uint64_t& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }

    // The home shard gets the whole batch first; only the refused SUFFIX
    // spills, to home+1, home+2, … in ring order, each shard getting one
    // attempt, so "full" means a full sweep refused. Each shard thus
    // receives a contiguous, in-order slice of the batch through one bulk
    // call, so the per-producer-per-shard FIFO contract is preserved
    // verbatim — a shard's slice is enqueued through the base queue's own
    // order-preserving (native or per-item) path. Telemetry counts items.
    [[gnu::always_inline]] std::size_t try_enqueue_bulk(
        const std::uint64_t* vs, std::size_t n) noexcept {
      const std::size_t nsh = q_.shards_.size();
      std::size_t done = enqueue_bulk_on(home_, vs, n);
      if (done > 0) {
        telemetry::count(telemetry::Counter::k_shard_affinity_hit, done);
      }
      for (std::size_t i = 1; i < nsh && done < n; ++i) {
        done += enqueue_bulk_on((home_ + i) % nsh, vs + done, n - done);
      }
      return done;
    }

    [[gnu::always_inline]] std::size_t try_dequeue_bulk(
        std::uint64_t* out, std::size_t n) noexcept {
      const std::size_t nsh = q_.shards_.size();
      std::size_t got = dequeue_bulk_on(home_, out, n);
      if (got > 0) {
        telemetry::count(telemetry::Counter::k_shard_affinity_hit, got);
      }
      // The same sweep as a spill: home+1 onward in ring order for the
      // remainder; a short batch is returned only after every shard
      // refused the tail.
      for (std::size_t i = 1; i < nsh && got < n; ++i) {
        const std::size_t s = (home_ + i) % nsh;
        const std::size_t k = dequeue_bulk_on(s, out + got, n - got);
        if (k > 0) telemetry::count(telemetry::Counter::k_shard_steal, k);
        got += k;
      }
      return got;
    }

    std::size_t home_shard() const noexcept { return home_; }

    // Routing observers for the relaxed-FIFO model checker: the shard the
    // last successful operation was served by. Unspecified before the
    // first success of that kind.
    std::size_t last_enqueue_shard() const noexcept { return last_enq_; }
    std::size_t last_dequeue_shard() const noexcept { return last_deq_; }

   private:
    std::size_t enqueue_bulk_on(std::size_t s, const std::uint64_t* vs,
                                std::size_t n) noexcept {
      const std::size_t k = workload::enqueue_bulk(*handles_[s], vs, n);
      if (k > 0) last_enq_ = s;
      return k;
    }

    std::size_t dequeue_bulk_on(std::size_t s, std::uint64_t* out,
                                std::size_t n) noexcept {
      const std::size_t k = workload::dequeue_bulk(*handles_[s], out, n);
      if (k > 0) last_deq_ = s;
      return k;
    }

    ShardedQueue& q_;
    const std::size_t home_;
    std::vector<std::unique_ptr<typename Q::Handle>> handles_;
    std::size_t last_enq_ = 0;
    std::size_t last_deq_ = 0;
  };

 private:
  friend class Handle;

  const std::size_t per_shard_;
  std::vector<std::unique_ptr<Q>> shards_;
  std::atomic<std::size_t> next_home_{0};
};

template <class Q>
constexpr char ShardedQueue<Q>::kName[];

}  // namespace sharded
}  // namespace membq
