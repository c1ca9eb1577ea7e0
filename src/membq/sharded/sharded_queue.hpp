// Sharded elastic MPMC layer: N instances of any registry queue behind a
// router. This is the "millions of users" front-end shape — per-shard
// contention drops by ~N while the paper's per-queue memory classes are
// preserved shard by shard (N shards of capacity C/N keep a Θ(C) design
// at Θ(C) total and a Θ(T) design at Θ(N·T) total, N a constant).
//
// Router policies (all three compose in one adapter; docs/sharding.md is
// the normative write-up):
//
//   1. Per-producer shard affinity. Every Handle is assigned a home shard
//      (round-robin at construction, or explicitly). Enqueues go to the
//      home shard first, so one producer's values land in its home shard
//      in program order — this is what makes the relaxed-FIFO guarantee
//      below non-vacuous.
//   2. Power-of-two-choices spill. When the home shard refuses (full), two
//      non-home shards are probed on their cheap length estimates and the
//      spill sweep starts at the shorter one. The estimates are relaxed
//      per-shard counters bumped after the fact — approximate by design;
//      they only bias the spill order, never correctness.
//   3. Work-stealing dequeue. A consumer dequeues from its home shard;
//      on empty it scans the other shards in ring order starting at
//      home+1. "Empty" is reported only after every shard refused in one
//      sweep (steal-before-report-empty).
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
//   * try_enqueue returns false only after the home shard, the po2-chosen
//     spill start, and every other shard each refused once during the
//     sweep. Single-threaded this makes "full" exact: it implies every
//     shard was full, i.e. exactly N × per-shard-capacity values are in.
//     Concurrently it is best-effort like any bounded queue's full
//     verdict (a racing dequeue may free a slot mid-sweep).
//   * try_dequeue returns false only after a full steal sweep. Same
//     exactness single-threaded, same best-effort caveat concurrently.
//
// Telemetry: shard_affinity_hit (op served by the handle's home shard),
// shard_len_probe (po2 estimate reads), shard_steal (dequeues served by a
// non-home shard) — emitted per record in BENCH_*.json like every other
// counter.
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
    lens_ = std::make_unique<PaddedLen[]>(n);
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

  // Cheap length estimate: a relaxed counter bumped after each successful
  // op, so it lags the truth by in-flight ops and may transiently read
  // low. Saturated at zero; only ever used to bias the spill order.
  std::size_t length_estimate(std::size_t shard) const noexcept {
    const std::int64_t n =
        lens_[shard].n.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
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
        : q_(q),
          home_(home % q.shards_.size()),
          rng_(0x9e3779b97f4a7c15ull ^ (home_ + 1) * 0xD1B54A32D192ED03ull) {
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
    // spills. Two probes pick the spill sweep's starting shard (power of
    // two choices on the length estimates), then every other shard gets
    // one attempt, so "full" means a full sweep refused. Each shard thus
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
      if (done == n || nsh == 1) return done;
      const std::size_t start = pick_spill_start(nsh);
      for (std::size_t i = 0; i < nsh && done < n; ++i) {
        const std::size_t s = (start + i) % nsh;
        if (s == home_) continue;
        done += enqueue_bulk_on(s, vs + done, n - done);
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
      // Steal sweep from home+1 in ring order for the remainder; a short
      // batch is returned only after every shard refused the tail.
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
      if (k > 0) {
        q_.lens_[s].n.fetch_add(static_cast<std::int64_t>(k),
                                std::memory_order_relaxed);
        last_enq_ = s;
      }
      return k;
    }

    std::size_t dequeue_bulk_on(std::size_t s, std::uint64_t* out,
                                std::size_t n) noexcept {
      const std::size_t k = workload::dequeue_bulk(*handles_[s], out, n);
      if (k > 0) {
        q_.lens_[s].n.fetch_sub(static_cast<std::int64_t>(k),
                                std::memory_order_relaxed);
        last_deq_ = s;
      }
      return k;
    }

    std::size_t pick_spill_start(std::size_t n) noexcept {
      // Two independent picks among the n-1 non-home shards; ties go to
      // the first. Estimates are approximate — see length_estimate().
      const std::size_t a = (home_ + 1 + next_rng() % (n - 1)) % n;
      const std::size_t b = (home_ + 1 + next_rng() % (n - 1)) % n;
      telemetry::count(telemetry::Counter::k_shard_len_probe, 2);
      return q_.length_estimate(a) <= q_.length_estimate(b) ? a : b;
    }

    std::uint64_t next_rng() noexcept {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      return rng_;
    }

    ShardedQueue& q_;
    const std::size_t home_;
    std::uint64_t rng_;
    std::vector<std::unique_ptr<typename Q::Handle>> handles_;
    std::size_t last_enq_ = 0;
    std::size_t last_deq_ = 0;
  };

 private:
  friend class Handle;

  // One cache line per estimate so spill probes never bounce a line the
  // other shards' counters share.
  struct alignas(64) PaddedLen {
    std::atomic<std::int64_t> n{0};
  };

  const std::size_t per_shard_;
  std::vector<std::unique_ptr<Q>> shards_;
  std::unique_ptr<PaddedLen[]> lens_;
  std::atomic<std::size_t> next_home_{0};
};

template <class Q>
constexpr char ShardedQueue<Q>::kName[];

}  // namespace sharded
}  // namespace membq
