// Seeded-schedule litmus/stress harness: the proof side of the ring
// memory-order audit (sync/memory_order.hpp).
//
// Relaxing an atomic is only honest if a failure would be *caught*; this
// harness is built so each relaxed pairing has a scenario whose invariant
// breaks if the pairing breaks:
//
//   * Schedule — a per-thread seeded perturbation source. Between
//     protocol steps a thread draws from its own xorshift stream and
//     either runs through, spins a pseudo-random number of pauses, or
//     yields. The interleaving walk is deterministic per (seed, thread),
//     so a failing run names a seed that replays the same schedule
//     pressure.
//
//   * HandoffLedger — an exactly-once, order-checking delivery ledger.
//     Producers tag values (producer id in the high bits, sequence
//     below); consumers log privately; check(site) then asserts, naming
//     the violating site:
//       - validity: every consumed value decodes to a real producer and
//         an issued sequence (catches torn/invented values — e.g. a
//         value word read without its seq/state acquire pairing);
//       - exactly-once: no (producer, seq) delivered twice (catches
//         cycle/ticket confusion — two tickets landing on one slot);
//       - per-consumer per-producer FIFO: within one consumer's stream,
//         each producer's sequences strictly increase. Sound without
//         timestamps: a consumer's own dequeues are program-ordered, so
//         a FIFO queue can never hand it producer P's item k after item
//         k' > k. (Global FIFO across consumers is NOT asserted here —
//         that needs invocation/response windows, which is exactly what
//         the Wing–Gong checker in tests/model_checker.hpp does.)
//       - completeness: every produced value was consumed (catches lost
//         elements — the ⊥-version / stale-CAS failure mode).
//
//   * stress_handoff — the generic scenario: P producers push a fixed
//     quota through queue Q while C consumers drain it to the ledger,
//     every thread interleaving Schedule perturbation with its protocol
//     steps. Run with a small capacity so the ring wraps constantly
//     (version reuse, cycle handoff) and with 1p/1c for pure
//     message-passing litmus. With sleeper_rounds > 0 the last producer
//     and the last consumer are sleepers: each makes one call, parks
//     until the others have moved sleeper_rounds × capacity items
//     through the ring, then resumes with its handle's state as the
//     first call left it (the ticket rings' counter floors, now that
//     many rounds stale).
//
// Native runs exercise the real hardware orderings; the TSan job runs the
// same scenarios under the race detector (see .github/workflows/ci.yml).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/barrier.hpp"
#include "sync/backoff.hpp"
#include "workload/driver.hpp"

namespace membq {
namespace litmus {

// One shared generator across the harnesses (workload driver, model
// checker, litmus), so seeds replay identically everywhere.
inline std::uint64_t next_rng(std::uint64_t& s) noexcept {
  return workload::detail::xorshift64(s);
}

// Per-thread seeded schedule perturbation (see header comment).
class Schedule {
 public:
  Schedule(std::uint64_t seed, std::size_t tid) noexcept
      : rng_((seed ^ (0x9e3779b97f4a7c15ull * (tid + 1))) | 1) {}

  void step() noexcept {
    const std::uint64_t r = next_rng(rng_);
    switch (r & 7) {
      case 0:
        std::this_thread::yield();
        break;
      case 1:
      case 2: {
        const int spins = static_cast<int>((r >> 3) & 63);
        for (int i = 0; i < spins; ++i) detail::cpu_relax();
        break;
      }
      default:
        break;  // run through at full speed
    }
  }

 private:
  std::uint64_t rng_;
};

// Value encoding: (producer + 1) in bits 32..47, sequence in bits 0..31.
// Bits 62/63 stay clear, so the tags satisfy every queue's reserved-range
// contract, and distinct (producer, seq) pairs give globally distinct
// values — inside the L2 queue's distinct-values assumption.
class HandoffLedger {
 public:
  HandoffLedger(std::size_t producers, std::size_t per_producer,
                std::size_t consumers)
      : producers_(producers),
        per_producer_(per_producer),
        logs_(consumers) {
    for (auto& log : logs_) log.reserve(per_producer);
  }

  static std::uint64_t tag(std::size_t producer, std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(producer + 1) << 32) | seq;
  }

  // Consumer-private: each consumer appends only to its own log, so the
  // hot path takes no locks and adds no synchronization that could mask
  // a queue ordering bug. The logs are merged in check(), after join.
  void consumed(std::size_t consumer, std::uint64_t value) {
    logs_[consumer].push_back(value);
  }

  void check(const char* site) const {
    const std::uint64_t total =
        static_cast<std::uint64_t>(producers_) * per_producer_;
    // delivered[p * per_producer_ + seq] counts deliveries of (p, seq).
    std::vector<std::uint32_t> delivered(producers_ * per_producer_, 0);
    std::uint64_t consumed_total = 0;
    for (std::size_t c = 0; c < logs_.size(); ++c) {
      // Last sequence seen from each producer within this consumer's
      // stream; per-consumer per-producer FIFO (see header).
      std::vector<std::int64_t> last_seq(producers_, -1);
      for (const std::uint64_t v : logs_[c]) {
        const std::uint64_t p_tag = v >> 32;
        const std::uint64_t seq = v & 0xffffffffull;
        ASSERT_TRUE(p_tag >= 1 && p_tag <= producers_ &&
                    seq < per_producer_)
            << site << ": consumer " << c << " dequeued value 0x" << std::hex
            << v << std::dec << " that no producer enqueued (torn or "
            << "invented value — publish/observe pairing broken)";
        const std::size_t p = static_cast<std::size_t>(p_tag - 1);
        ASSERT_GT(static_cast<std::int64_t>(seq), last_seq[p])
            << site << ": consumer " << c << " saw producer " << p
            << " seq " << seq << " after seq " << last_seq[p]
            << " (FIFO inversion — ticket/slot visibility broken)";
        last_seq[p] = static_cast<std::int64_t>(seq);
        ASSERT_EQ(delivered[p * per_producer_ + seq]++, 0u)
            << site << ": value (producer " << p << ", seq " << seq
            << ") delivered twice (cycle/version handoff broken)";
        ++consumed_total;
      }
    }
    ASSERT_EQ(consumed_total, total)
        << site << ": " << (total - consumed_total)
        << " values lost (stale CAS landed / element vanished)";
  }

 private:
  std::size_t producers_;
  std::size_t per_producer_;
  std::vector<std::vector<std::uint64_t>> logs_;
};

// Generic seeded handoff stress over any queue exposing the membq Handle
// concept. Producers retry failed enqueues (the ring may be full under a
// small capacity — that is the point); consumers drain until the global
// count reaches the quota. The ledger check names `site` on violation.
template <class Q>
void stress_handoff(const char* site, Q& q, std::size_t producers,
                    std::size_t consumers, std::size_t per_producer,
                    std::uint64_t seed, std::size_t sleeper_rounds = 0) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(producers) * per_producer;
  HandoffLedger ledger(producers, per_producer, consumers);
  std::atomic<std::uint64_t> consumed_total{0};
  SpinBarrier barrier(producers + consumers);
  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);

  // Sleepers wake once the others moved this many items; the others'
  // quota must cover it, or the sleepers would park forever.
  std::uint64_t wake_at = 0;
  if (sleeper_rounds > 0) {
    ASSERT_GE(producers, 2u) << site;
    ASSERT_GE(consumers, 2u) << site;
    wake_at = static_cast<std::uint64_t>(sleeper_rounds) * q.capacity();
    ASSERT_GE(total - per_producer, wake_at) << site;
  }
  const auto park = [&] {
    while (consumed_total.load(std::memory_order_acquire) < wake_at) {
      std::this_thread::yield();
    }
  };

  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      typename Q::Handle h(q);
      Schedule sch(seed, p);
      barrier.arrive_and_wait();
      std::uint64_t seq = 0;
      if (sleeper_rounds > 0 && p + 1 == producers) {
        if (h.try_enqueue(HandoffLedger::tag(p, 0))) seq = 1;
        park();
      }
      for (; seq < per_producer; ++seq) {
        const std::uint64_t v = HandoffLedger::tag(p, seq);
        while (!h.try_enqueue(v)) sch.step();
        sch.step();
      }
    });
  }
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      typename Q::Handle h(q);
      Schedule sch(seed, producers + c);
      barrier.arrive_and_wait();
      std::uint64_t out = 0;
      const auto take = [&] {
        if (h.try_dequeue(out)) {
          ledger.consumed(c, out);
          consumed_total.fetch_add(1, std::memory_order_acq_rel);
        } else {
          sch.step();
        }
      };
      if (sleeper_rounds > 0 && c + 1 == consumers) {
        take();
        park();
        take();  // at least one call on the stale state, even if done
      }
      while (consumed_total.load(std::memory_order_acquire) < total) take();
    });
  }
  for (auto& t : threads) t.join();
  ledger.check(site);

  // The quota accounts for every enqueue, so the queue must be empty.
  typename Q::Handle h(q);
  std::uint64_t out = 0;
  ASSERT_FALSE(h.try_dequeue(out))
      << site << ": queue still holds 0x" << std::hex << out << std::dec
      << " after all produced values were consumed (duplicate element)";
}

// Bulk-op twin of stress_handoff: producers push their quota through
// try_enqueue_bulk (variable batch fill, retrying the refused suffix) and
// consumers drain through try_dequeue_bulk — except cbatch <= 1, which
// uses the scalar try_dequeue so the scenario checks the bulk *release*
// sweep against a plain per-slot consumer *acquire* (the pairing that
// breaks if bulk publication collapses to one trailing store). The ledger
// checks are identical to the scalar harness: a batched path that tears a
// value, skips a slot's publication, or double-delivers under wrap shows
// up as invented / lost / duplicated values.
template <class Q>
void stress_handoff_bulk(const char* site, Q& q, std::size_t producers,
                         std::size_t consumers, std::size_t per_producer,
                         std::size_t pbatch, std::size_t cbatch,
                         std::uint64_t seed) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(producers) * per_producer;
  HandoffLedger ledger(producers, per_producer, consumers);
  std::atomic<std::uint64_t> consumed_total{0};
  SpinBarrier barrier(producers + consumers);
  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);

  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      typename Q::Handle h(q);
      Schedule sch(seed, p);
      std::vector<std::uint64_t> buf(pbatch > 0 ? pbatch : 1);
      barrier.arrive_and_wait();
      std::uint64_t seq = 0;
      while (seq < per_producer) {
        // Fill up to a full batch, then land it; the accepted count is a
        // PREFIX, so the refused suffix shifts down and retries — exactly
        // the contract the server's ENQ retry loop depends on.
        std::size_t fill = 0;
        while (fill < buf.size() && seq + fill < per_producer) {
          buf[fill] = HandoffLedger::tag(p, seq + fill);
          ++fill;
        }
        std::size_t done = 0;
        while (done < fill) {
          const std::size_t k =
              h.try_enqueue_bulk(buf.data() + done, fill - done);
          done += k;
          if (k == 0) sch.step();
        }
        seq += fill;
        sch.step();
      }
    });
  }
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      typename Q::Handle h(q);
      Schedule sch(seed, producers + c);
      std::vector<std::uint64_t> buf(cbatch > 1 ? cbatch : 1);
      barrier.arrive_and_wait();
      while (consumed_total.load(std::memory_order_acquire) < total) {
        std::size_t k = 0;
        if (cbatch <= 1) {
          // Scalar consumer against bulk producers: each slot's own
          // acquire load must pair with the bulk publication sweep.
          k = h.try_dequeue(buf[0]) ? 1 : 0;
        } else {
          k = h.try_dequeue_bulk(buf.data(), buf.size());
        }
        if (k == 0) {
          sch.step();
          continue;
        }
        for (std::size_t i = 0; i < k; ++i) ledger.consumed(c, buf[i]);
        consumed_total.fetch_add(k, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& t : threads) t.join();
  ledger.check(site);

  typename Q::Handle h(q);
  std::uint64_t out = 0;
  ASSERT_FALSE(h.try_dequeue(out))
      << site << ": queue still holds 0x" << std::hex << out << std::dec
      << " after all produced values were consumed (duplicate element)";
}

}  // namespace litmus
}  // namespace membq
