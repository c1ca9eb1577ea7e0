// Shared model-based test harness for every queue in the registry.
//
// Two attack angles, replacing the per-suite ad-hoc audits:
//
//   * check_against_model — single-handle randomized mixed op sequences
//     replayed against a std::deque reference model, exact step-by-step:
//     every try_enqueue/try_dequeue outcome (accepted/refused, value
//     returned) must match what the sequential bounded-queue spec says.
//     Seeded, so a failure reproduces.
//
//   * record_history / expect_linearizable_histories — real-thread mixed
//     runs recorded as Herlihy–Wing histories (invocation/response stamps
//     from a shared atomic clock) and judged by the Wing–Gong bounded-
//     queue checker. Small per-run op counts keep the DFS exact (the
//     checker's linearized-set bitmask caps a history at 63 ops).
//
// Value discipline: `distinct` values (thread tag + counter) satisfy
// every queue's contract, including L2's distinct-values assumption.
// Queues without that assumption should ALSO be run with `repeating`
// values from a tiny alphabet — repeated values in the same cell are
// exactly the expected-side ABA that round-versioned bottoms cannot
// guard (the reason the lock-free L5 vacate needs its DCSS shield).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/history.hpp"
#include "adversary/linearizability.hpp"
#include "common/barrier.hpp"
#include "workload/bulk.hpp"
#include "workload/driver.hpp"

namespace membq {
namespace model {

enum class Values {
  kDistinct,   // every enqueued value unique (L2's contract)
  kRepeating,  // tiny alphabet; stresses expected-side ABA on cells
};

// Per-thread operation restriction for role-contract queues (the SPSC/
// MPSC/SPMC rings may only ever see one producer and/or one consumer
// thread; handing them the unrestricted mixed recorder would break their
// contract, not test it).
enum class Role {
  kBoth,      // unrestricted MPMC thread (the default)
  kProducer,  // enqueue-only
  kConsumer,  // dequeue-only
};

// xorshift64: the same deterministic generator the other suites use —
// delegated to the workload driver's definition so a tweak there cannot
// silently break cross-suite seed-replay parity.
inline std::uint64_t next_rng(std::uint64_t& s) noexcept {
  return workload::detail::xorshift64(s);
}

// Single-handle exactness: `ops` random operations (enqueue-biased, so
// full and empty are both visited) checked against a std::deque model.
// Values stay below 1<<32 with bits 62/63 clear — inside every queue's
// contract.
template <class Q>
void check_against_model(Q& q, std::size_t capacity, std::uint64_t seed,
                         std::size_t ops, Values values = Values::kDistinct) {
  typename Q::Handle h(q);
  std::deque<std::uint64_t> model;
  std::uint64_t rng = seed != 0 ? seed : 1;
  std::uint64_t next_value = 1;
  for (std::size_t i = 0; i < ops; ++i) {
    const bool do_enqueue = (next_rng(rng) % 100) < 55;
    if (do_enqueue) {
      const std::uint64_t v = values == Values::kDistinct
                                  ? next_value++
                                  : 1 + (next_rng(rng) % 3);
      const bool ok = h.try_enqueue(v);
      const bool model_ok = model.size() < capacity;
      ASSERT_EQ(ok, model_ok)
          << "op " << i << ": enqueue(" << v << ") accepted=" << ok
          << " but model holds " << model.size() << "/" << capacity
          << " (seed " << seed << ")";
      if (model_ok) model.push_back(v);
    } else {
      std::uint64_t out = 0;
      const bool ok = h.try_dequeue(out);
      const bool model_ok = !model.empty();
      ASSERT_EQ(ok, model_ok)
          << "op " << i << ": dequeue ok=" << ok << " but model holds "
          << model.size() << " (seed " << seed << ")";
      if (model_ok) {
        ASSERT_EQ(out, model.front())
            << "op " << i << ": dequeue returned " << out << ", model front "
            << model.front() << " (seed " << seed << ")";
        model.pop_front();
      }
    }
  }
  // Drain and check the leftover prefix, so a value smuggled past the
  // model inside the queue cannot hide behind the random walk.
  std::uint64_t out = 0;
  while (!model.empty()) {
    ASSERT_TRUE(h.try_dequeue(out)) << "queue lost " << model.size()
                                    << " modeled values (seed " << seed
                                    << ")";
    ASSERT_EQ(out, model.front()) << "(seed " << seed << ")";
    model.pop_front();
  }
  ASSERT_FALSE(h.try_dequeue(out))
      << "queue holds unmodeled value " << out << " (seed " << seed << ")";
}

// Bulk-op exactness: random bulk sizes replayed against the deque model
// AS ITEM SEQUENCES — a bulk enqueue of k accepted values is the model's
// k push_backs, a bulk dequeue is k front pops, in order. Dispatch goes
// through workload::enqueue_bulk/dequeue_bulk, so rows with a native
// bulk path check the one-reservation code and rows without check the
// generic per-item fallback against the same spec. Single-handle, the
// best-effort prefix contract collapses to exactness: with no
// contention, the accepted/received count must be exactly what the
// bounded queue has room/items for.
template <class Q>
void check_bulk_against_model(Q& q, std::size_t capacity, std::uint64_t seed,
                              std::size_t ops, std::size_t max_batch,
                              Values values = Values::kDistinct) {
  typename Q::Handle h(q);
  std::deque<std::uint64_t> model;
  std::uint64_t rng = seed != 0 ? seed : 1;
  std::uint64_t next_value = 1;
  std::vector<std::uint64_t> buf(max_batch);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t req = 1 + next_rng(rng) % max_batch;
    const bool do_enqueue = (next_rng(rng) % 100) < 55;
    if (do_enqueue) {
      for (std::size_t j = 0; j < req; ++j) {
        buf[j] = values == Values::kDistinct ? next_value++
                                             : 1 + (next_rng(rng) % 3);
      }
      const std::size_t k = workload::enqueue_bulk(h, buf.data(), req);
      const std::size_t room = capacity - model.size();
      ASSERT_EQ(k, req < room ? req : room)
          << "op " << i << ": bulk enqueue(" << req << ") accepted " << k
          << " with " << model.size() << "/" << capacity
          << " queued (seed " << seed << ")";
      for (std::size_t j = 0; j < k; ++j) model.push_back(buf[j]);
    } else {
      const std::size_t k = workload::dequeue_bulk(h, buf.data(), req);
      const std::size_t held = model.size();
      ASSERT_EQ(k, req < held ? req : held)
          << "op " << i << ": bulk dequeue(" << req << ") returned " << k
          << " with " << held << " queued (seed " << seed << ")";
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_EQ(buf[j], model.front())
            << "op " << i << ": bulk dequeue item " << j
            << " broke FIFO (seed " << seed << ")";
        model.pop_front();
      }
    }
  }
  // Drain through the bulk path and check the leftovers.
  while (!model.empty()) {
    const std::size_t k = workload::dequeue_bulk(h, buf.data(), max_batch);
    ASSERT_GT(k, 0u) << "queue lost " << model.size()
                     << " modeled values in a bulk drain (seed " << seed
                     << ")";
    for (std::size_t j = 0; j < k; ++j) {
      ASSERT_FALSE(model.empty())
          << "bulk drain over-delivered (seed " << seed << ")";
      ASSERT_EQ(buf[j], model.front()) << "(seed " << seed << ")";
      model.pop_front();
    }
  }
  std::uint64_t out = 0;
  ASSERT_FALSE(h.try_dequeue(out))
      << "queue holds unmodeled value " << out << " (seed " << seed << ")";
}

// Bulk twin for the sharded rows' relaxed contract: the router may
// reorder across shards, so the reference is a SET, not a deque — the
// checks are exact counts (single-handle, every shard's bulk op is
// exact), exactly-once, no invented values, and no loss after a drain.
template <class SQ>
void check_sharded_bulk(SQ& q, std::uint64_t seed, std::size_t ops,
                        std::size_t max_batch) {
  typename SQ::Handle h(q);
  std::set<std::uint64_t> outstanding;
  const std::size_t cap = q.capacity();
  std::size_t total = 0;
  std::uint64_t rng = seed != 0 ? seed : 1;
  std::uint64_t next_value = 1;
  std::vector<std::uint64_t> buf(max_batch);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t req = 1 + next_rng(rng) % max_batch;
    const bool do_enqueue = (next_rng(rng) % 100) < 55;
    if (do_enqueue) {
      for (std::size_t j = 0; j < req; ++j) buf[j] = next_value++;
      const std::size_t k = h.try_enqueue_bulk(buf.data(), req);
      const std::size_t room = cap - total;
      ASSERT_EQ(k, req < room ? req : room)
          << "op " << i << ": sharded bulk enqueue(" << req << ") accepted "
          << k << " with " << total << "/" << cap << " queued (seed "
          << seed << ") — the spill sweep must visit every shard";
      for (std::size_t j = 0; j < k; ++j) outstanding.insert(buf[j]);
      total += k;
    } else {
      const std::size_t k = h.try_dequeue_bulk(buf.data(), req);
      ASSERT_EQ(k, req < total ? req : total)
          << "op " << i << ": sharded bulk dequeue(" << req << ") returned "
          << k << " with " << total << " queued (seed " << seed
          << ") — the steal sweep must visit every shard";
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_EQ(outstanding.erase(buf[j]), 1u)
            << "op " << i << ": bulk dequeue delivered " << buf[j]
            << " twice or invented it (seed " << seed << ")";
      }
      total -= k;
    }
  }
  while (total > 0) {
    const std::size_t k = h.try_dequeue_bulk(buf.data(), max_batch);
    ASSERT_GT(k, 0u) << "sharded bulk drain lost " << total
                     << " values (seed " << seed << ")";
    for (std::size_t j = 0; j < k; ++j) {
      ASSERT_EQ(outstanding.erase(buf[j]), 1u) << "(seed " << seed << ")";
    }
    total -= k;
  }
  ASSERT_TRUE(outstanding.empty()) << "(seed " << seed << ")";
}

// Real-thread mixed run recorded as a Herlihy–Wing history. A shared
// atomic clock stamps invocation and response instants; the recorded
// partial order is what the Wing–Gong checker must find a linearization
// for. Keep threads*ops_per_thread <= 63 (the checker's exact-DFS limit).
// `roles` (empty = unrestricted) assigns each thread a Role, so the
// role-contract rings can be recorded without breaking their contract.
template <class Q>
adversary::History record_history(Q& q, std::size_t threads,
                                  std::size_t ops_per_thread,
                                  std::uint64_t seed,
                                  Values values = Values::kDistinct,
                                  const std::vector<Role>& roles = {}) {
  assert(roles.empty() || roles.size() == threads);
  std::atomic<std::size_t> clock{0};
  std::vector<std::vector<adversary::Operation>> per_thread(threads);
  SpinBarrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::size_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      typename Q::Handle h(q);
      const Role role = roles.empty() ? Role::kBoth : roles[tid];
      std::uint64_t rng = seed ^ (0x9e3779b97f4a7c15ull * (tid + 1));
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        adversary::Operation op;
        op.thread = static_cast<int>(tid);
        const bool coin = (next_rng(rng) & 1) != 0;
        const bool do_enqueue =
            role == Role::kProducer || (role == Role::kBoth && coin);
        if (do_enqueue) {
          op.kind = adversary::OpKind::kEnqueue;
          op.value = values == Values::kDistinct
                         ? (((tid + 1) << 8) | seq++)
                         : 1 + (next_rng(rng) % 3);
          op.invoked = clock.fetch_add(1);
          op.ok = h.try_enqueue(op.value);
          op.responded = clock.fetch_add(1);
        } else {
          op.kind = adversary::OpKind::kDequeue;
          std::uint64_t out = 0;
          op.invoked = clock.fetch_add(1);
          op.ok = h.try_dequeue(out);
          op.responded = clock.fetch_add(1);
          op.value = out;
        }
        per_thread[tid].push_back(op);
      }
    });
  }
  for (auto& w : workers) w.join();
  adversary::History hist;
  for (auto& ops : per_thread) {
    for (auto& op : ops) hist.ops.push_back(op);
  }
  return hist;
}

// ---- Relaxed-FIFO mode (sharded rows) ------------------------------------
//
// The sharded adapter is deliberately NOT globally linearizable to the
// bounded FIFO queue spec: its contract (docs/sharding.md) is
// exactly-once + no-loss + per-shard bounds + per-producer-per-shard
// FIFO. The two checkers below are that contract made executable; the
// sharded registry rows run these INSTEAD of the deque replay and the
// Wing–Gong judgement.

// Single-handle exactness against N reference deques, one per shard. The
// checker does not predict the router — it observes it through the
// handle's last_enqueue_shard()/last_dequeue_shard() and holds the queue
// to what routing it actually chose: a dequeue from shard s must return
// the front of s's model, an accepted enqueue must land in a shard with
// room, and single-threaded the full/empty verdicts are exact (a sweep
// refuses only when every shard refuses).
template <class SQ>
void check_sharded_against_model(SQ& q, std::uint64_t seed, std::size_t ops,
                                 Values values = Values::kDistinct) {
  typename SQ::Handle h(q);
  std::vector<std::deque<std::uint64_t>> model(q.shard_count());
  const std::size_t cap = q.capacity();
  const std::size_t per_shard = q.per_shard_capacity();
  std::size_t total = 0;
  std::uint64_t rng = seed != 0 ? seed : 1;
  std::uint64_t next_value = 1;
  for (std::size_t i = 0; i < ops; ++i) {
    const bool do_enqueue = (next_rng(rng) % 100) < 55;
    if (do_enqueue) {
      const std::uint64_t v = values == Values::kDistinct
                                  ? next_value++
                                  : 1 + (next_rng(rng) % 3);
      const bool ok = h.try_enqueue(v);
      ASSERT_EQ(ok, total < cap)
          << "op " << i << ": enqueue accepted=" << ok << " with " << total
          << "/" << cap << " queued (seed " << seed << ")";
      if (!ok) continue;
      const std::size_t s = h.last_enqueue_shard();
      ASSERT_LT(s, model.size()) << "(seed " << seed << ")";
      ASSERT_LT(model[s].size(), per_shard)
          << "op " << i << ": enqueue routed to full shard " << s
          << " (per-shard bound " << per_shard << ", seed " << seed << ")";
      model[s].push_back(v);
      ++total;
    } else {
      std::uint64_t out = 0;
      const bool ok = h.try_dequeue(out);
      ASSERT_EQ(ok, total > 0)
          << "op " << i << ": dequeue ok=" << ok << " with " << total
          << " queued (seed " << seed << ")";
      if (!ok) continue;
      const std::size_t s = h.last_dequeue_shard();
      ASSERT_LT(s, model.size()) << "(seed " << seed << ")";
      ASSERT_FALSE(model[s].empty())
          << "op " << i << ": dequeue served by empty shard " << s
          << " (seed " << seed << ")";
      ASSERT_EQ(out, model[s].front())
          << "op " << i << ": shard " << s << " broke per-shard FIFO (seed "
          << seed << ")";
      model[s].pop_front();
      --total;
    }
  }
  // Drain: every modeled value must come back, from the shard its model
  // predicts, and nothing else may appear.
  std::uint64_t out = 0;
  while (total > 0) {
    ASSERT_TRUE(h.try_dequeue(out))
        << "queue lost " << total << " modeled values (seed " << seed << ")";
    const std::size_t s = h.last_dequeue_shard();
    ASSERT_FALSE(model[s].empty()) << "(seed " << seed << ")";
    ASSERT_EQ(out, model[s].front()) << "(seed " << seed << ")";
    model[s].pop_front();
    --total;
  }
  ASSERT_FALSE(h.try_dequeue(out))
      << "queue holds unmodeled value " << out << " (seed " << seed << ")";
}

// Real-thread relaxed-FIFO check. Each thread logs its operations (with
// the serving shard); afterwards a drain handle empties the queue. The
// ledger asserts:
//   * exactly-once: every dequeued value was enqueued-ok, once;
//   * no-loss: enqueued-ok count == dequeued + drained count;
//   * per-producer-per-shard FIFO, projected per consumer: one
//     consumer's dequeues from one shard must see any single producer's
//     sequence numbers strictly increasing. (The projection is what a
//     single observer can soundly order without timestamps; each shard
//     being linearizable FIFO makes it a theorem, so a violation is a
//     real routing/steal bug, never checker noise.)
// `homes` pins each thread's home shard (empty = round-robin), which is
// how the steal-storm stress homes every consumer on one shard.
template <class SQ>
void check_sharded_relaxed_fifo(SQ& q, std::size_t threads,
                                std::size_t ops_per_thread,
                                std::uint64_t seed,
                                const std::vector<Role>& roles = {},
                                const std::vector<std::size_t>& homes = {}) {
  assert(roles.empty() || roles.size() == threads);
  assert(homes.empty() || homes.size() == threads);
  struct LoggedOp {
    bool enq;
    std::uint64_t value;
    std::size_t shard;
  };
  std::vector<std::vector<LoggedOp>> logs(threads + 1);  // +1: drain
  SpinBarrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::size_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      auto h = homes.empty()
                   ? typename SQ::Handle(q)
                   : typename SQ::Handle(q, homes[tid]);
      const Role role = roles.empty() ? Role::kBoth : roles[tid];
      std::uint64_t rng = seed ^ (0x9e3779b97f4a7c15ull * (tid + 1));
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const bool coin = (next_rng(rng) & 1) != 0;
        const bool do_enqueue =
            role == Role::kProducer || (role == Role::kBoth && coin);
        if (do_enqueue) {
          const std::uint64_t v = workload::detail::make_value(tid, seq++);
          if (h.try_enqueue(v)) {
            logs[tid].push_back({true, v, h.last_enqueue_shard()});
          }
        } else {
          std::uint64_t out = 0;
          if (h.try_dequeue(out)) {
            logs[tid].push_back({false, out, h.last_dequeue_shard()});
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  {
    typename SQ::Handle h(q);
    std::uint64_t out = 0;
    while (h.try_dequeue(out)) {
      logs[threads].push_back({false, out, h.last_dequeue_shard()});
    }
  }
  // Ledger. Values are (producer tag, seq) — globally distinct.
  std::set<std::uint64_t> enqueued, dequeued;
  for (const auto& log : logs) {
    for (const auto& op : log) {
      if (op.enq) {
        ASSERT_TRUE(enqueued.insert(op.value).second)
            << "duplicate enqueue value (seed " << seed << ")";
      }
    }
  }
  for (const auto& log : logs) {
    // (producer, shard) -> last seq seen by THIS consumer from that shard.
    std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> last_seq;
    for (const auto& op : log) {
      if (op.enq) continue;
      ASSERT_TRUE(enqueued.count(op.value))
          << "dequeued value " << op.value
          << " that was never enqueued (seed " << seed << ")";
      ASSERT_TRUE(dequeued.insert(op.value).second)
          << "value " << op.value << " delivered twice (seed " << seed
          << ")";
      const std::uint64_t producer = op.value >> 40;
      const std::uint64_t s = op.value & ((std::uint64_t{1} << 40) - 1);
      auto key = std::make_pair(producer, op.shard);
      auto it = last_seq.find(key);
      if (it != last_seq.end()) {
        ASSERT_LT(it->second, s)
            << "per-producer FIFO broken within shard " << op.shard
            << ": producer " << producer << " seq " << s << " after "
            << it->second << " (seed " << seed << ")";
        it->second = s;
      } else {
        last_seq.emplace(key, s);
      }
    }
  }
  ASSERT_EQ(enqueued.size(), dequeued.size())
      << "no-loss violated: " << enqueued.size() << " enqueued but "
      << dequeued.size() << " delivered after the drain (seed " << seed
      << ")";
}

// A history for a failure message: one line per operation in invocation
// order, with its thread, call, verdict and [invoked, responded] stamps.
inline std::string describe(const adversary::History& hist) {
  std::vector<std::size_t> order(hist.ops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return hist.ops[a].invoked < hist.ops[b].invoked;
  });
  std::ostringstream out;
  for (std::size_t i : order) {
    const adversary::Operation& op = hist.ops[i];
    out << "  t" << op.thread << ' ';
    if (op.kind == adversary::OpKind::kEnqueue) {
      out << "enq(" << op.value << ") -> " << (op.ok ? "ok" : "full");
    } else if (op.ok) {
      out << "deq() -> " << op.value;
    } else {
      out << "deq() -> empty";
    }
    out << " [" << op.invoked << ", " << op.responded << "]\n";
  }
  return out.str();
}

// Which verdict a history that does not linearize got wrong: each refused
// call (a full or an empty verdict) whose removal lets the rest linearize
// was a false full or a false empty. Refusals change no state, so the
// rest is still a history of the same queue.
inline std::string explain_refusals(const adversary::History& hist,
                                    std::size_t capacity) {
  std::ostringstream out;
  for (std::size_t i = 0; i < hist.ops.size(); ++i) {
    const adversary::Operation& op = hist.ops[i];
    if (op.ok) continue;
    adversary::History rest = hist;
    rest.ops.erase(rest.ops.begin() + static_cast<std::ptrdiff_t>(i));
    if (!adversary::check_bounded_queue(rest, capacity).linearizable) {
      continue;
    }
    const bool enq = op.kind == adversary::OpKind::kEnqueue;
    out << "a false " << (enq ? "full" : "empty") << ": without t"
        << op.thread << "'s refused " << (enq ? "enqueue" : "dequeue")
        << " at [" << op.invoked << ", " << op.responded
        << "] the history linearizes\n";
  }
  const std::string found = out.str();
  return found.empty() ? "no single refused call's removal makes it "
                         "linearize\n"
                       : found;
}

// Record one history per seed on a fresh queue from `make` and assert
// every one linearizes against the bounded-queue spec; a failure prints
// the history and the verdict it got wrong (explain_refusals). `roles`
// restricts per-thread operations for the role-contract rings (empty =
// MPMC).
template <class MakeQueue>
void expect_linearizable_histories(MakeQueue make, std::size_t capacity,
                                   std::size_t threads,
                                   std::size_t ops_per_thread,
                                   std::initializer_list<std::uint64_t> seeds,
                                   Values values = Values::kDistinct,
                                   const std::vector<Role>& roles = {}) {
  for (std::uint64_t seed : seeds) {
    auto q = make();
    const auto hist =
        record_history(*q, threads, ops_per_thread, seed, values, roles);
    const auto res = adversary::check_bounded_queue(hist, capacity);
    ASSERT_FALSE(res.history_too_large) << "seed " << seed;
    EXPECT_TRUE(res.linearizable)
        << "seed " << seed << ": " << explain_refusals(hist, capacity)
        << describe(hist);
  }
}

}  // namespace model
}  // namespace membq
