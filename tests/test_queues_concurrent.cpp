// Multithreaded safety: nothing lost, nothing duplicated, and
// per-producer FIFO order preserved end to end, on every row and role
// ring of workload/rows.hpp; then the bulk bodies' counter advances.
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/scq_ring.hpp"
#include "common/barrier.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "queue_rows.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "workload/driver.hpp"

namespace {

constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 32) - 1;

std::uint64_t encode(std::size_t producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer + 1) << 32) | seq;
}

// P producers push `per_producer` tagged values; C consumers drain until
// everything is accounted for. Checks:
//   no loss        — every pushed value arrives,
//   no duplication — nothing arrives twice,
//   producer FIFO  — each producer's sequence arrives in increasing order
//                    at each consumer (prefix-merge property of a FIFO),
//                    when `producer_fifo` is set.
template <class Q>
void run_mpmc_audit(Q& q, std::size_t producers, std::size_t consumers,
                    std::uint64_t per_producer, bool producer_fifo) {
  const std::uint64_t total = producers * per_producer;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> fifo_violation{false};
  membq::SpinBarrier barrier(producers + consumers);

  std::vector<std::vector<std::uint64_t>> received(consumers);
  std::vector<std::thread> threads;

  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      typename Q::Handle h(q);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        while (!h.try_enqueue(encode(p, i))) std::this_thread::yield();
      }
    });
  }
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      typename Q::Handle h(q);
      // Last-seen sequence per producer, for the FIFO check.
      std::vector<std::int64_t> last(producers, -1);
      auto& sink = received[c];
      sink.reserve(total / consumers + 16);
      barrier.arrive_and_wait();
      while (consumed.load() < total) {
        std::uint64_t v = 0;
        if (!h.try_dequeue(v)) {
          std::this_thread::yield();
          continue;
        }
        consumed.fetch_add(1);
        sink.push_back(v);
        const std::size_t producer = (v >> 32) - 1;
        const auto seq = static_cast<std::int64_t>(v & kSeqMask);
        if (producer >= producers ||
            (producer_fifo && seq <= last[producer])) {
          fifo_violation.store(true);
        }
        last[producer] = seq;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(fifo_violation.load()) << "per-producer FIFO violated";
  EXPECT_EQ(consumed.load(), total);

  // No loss / no duplication across all consumers.
  std::map<std::uint64_t, std::size_t> counts;
  for (const auto& sink : received) {
    for (std::uint64_t v : sink) ++counts[v];
  }
  EXPECT_EQ(counts.size(), total) << "values lost";
  for (const auto& [v, n] : counts) {
    ASSERT_EQ(n, 1u) << "value " << v << " duplicated";
  }
}

using membq::rows_test::capacity_for;
using membq::rows_test::for_each_queue_row;
using membq::rows_test::kAnyRow;
using membq::rows_test::register_per_row;

// The audit on one row, `items` values in all: two producers and two
// consumers, or for a role ring one thread in its single role and three
// in the other. A relaxed row keeps per-producer FIFO only within each
// shard, which a consumer stealing across shards does not see in order,
// so it runs without that check, and with the capacity per shard.
template <class R>
void audit_row(R row, std::size_t cap, std::size_t threads,
               std::size_t seg_size, std::uint64_t items) {
  const std::size_t producers =
      row.single_producer ? 1 : row.single_consumer ? 3 : 2;
  const std::size_t consumers =
      row.single_consumer ? 1 : row.single_producer ? 3 : 2;
  auto q = row.make(capacity_for<R>(cap), threads, seg_size);
  run_mpmc_audit(*q, producers, consumers, items / producers,
                 R::contract == membq::workload::Contract::kLinearizable);
}

// The audit's name for a row's thread roles.
template <class R>
const char* audit_roles(const R& row) {
  if (row.single_producer && row.single_consumer) return "Pairwise";
  if (row.single_consumer) return "ManyProducersOneConsumer";
  if (row.single_producer) return "OneProducerManyConsumers";
  return "Mpmc";
}

// QueueConcurrentTest.<stem>Mpmc, one test per row (a role ring's name
// says its roles instead). K=8 on the L1 rows.
[[maybe_unused]] const bool kMpmcRegistered = register_per_row(
    "QueueConcurrentTest", kAnyRow,
    [](const auto& row) { return audit_roles(row); },
    [](auto row) {
      audit_row(row, 64, /*threads=*/8, /*seg_size=*/8, /*items=*/9000);
    });

// A tiny ring under full thread contention crosses round boundaries
// constantly — the regime where stale-CAS bugs (Theorem 3.12's weapon)
// would surface as loss or duplication — on every row and role ring. At
// capacity 2 every lock-free L5 vacate is one round away from the
// staleness window its DCSS guard closes; at K=1 every enqueue on an L1
// row appends a segment and every drain retires one, the most pressure
// on the reclamation domain.
TEST(QueueConcurrentTest, TinyRingHighChurnAllPaperQueues) {
  for_each_queue_row([](auto row) {
    SCOPED_TRACE(row.name);
    audit_row(row, 2, /*threads=*/8, /*seg_size=*/1, /*items=*/3000);
  });
}

// A bulk op claims cells t0..t0+k-1 and then advances its counter once
// over the range. If a helper had already stepped the counter to t0+1, a
// one-shot CAS t0 → t0+k failed and nothing stepped it again once the
// claimed cells were dequeued: the ring reported full while empty, or
// spun forever. B=8 batches on a 64-slot ring at T=4, pinned, hit that
// window within a few hundred items on a 4-CPU host. After the run the
// drained ring must hold exactly what the counts say, with no value
// twice, and still take one value and give it back. On one CPU the
// window never opens; the test passes there. `args` follow the capacity
// in the queue's constructor.
template <class Q, class... Args>
void run_bulk_then_check_counters(Args... args) {
  Q q(64, args...);
  membq::workload::RunConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 20000;
  cfg.mix = membq::workload::Mix::kBalanced;
  cfg.batch = 8;
  cfg.prefill = 32;
  // One core each: the window needs real overlap.
  cfg.pin = membq::PinPolicy::kCoresFirst;
  const membq::workload::RunResult r = membq::workload::run_workload(q, cfg);

  typename Q::Handle h(q);
  std::set<std::uint64_t> drained;
  std::uint64_t v = 0;
  while (drained.size() <= 2 * q.capacity() && h.try_dequeue(v)) {
    ASSERT_TRUE(drained.insert(v).second) << "value " << v << " delivered twice";
  }
  EXPECT_EQ(drained.size(), cfg.prefill + r.enq_ok - r.deq_ok);

  ASSERT_TRUE(h.try_enqueue(1)) << "drained ring refuses an enqueue";
  ASSERT_TRUE(h.try_dequeue(v)) << "ring refuses to return its one value";
  EXPECT_EQ(v, 1u);
}

TEST(QueueConcurrentTest, ScqBulkRangeAdvanceNeverStrandsCounter) {
  run_bulk_then_check_counters<membq::ScqRing>();
}

TEST(QueueConcurrentTest, DistinctBulkRangeAdvanceNeverStrandsCounter) {
  run_bulk_then_check_counters<membq::DistinctQueue>();
}

TEST(QueueConcurrentTest, LlscBulkRangeAdvanceNeverStrandsCounter) {
  run_bulk_then_check_counters<membq::LlscQueue>();
}

TEST(QueueConcurrentTest, DcssBulkRangeAdvanceNeverStrandsCounter) {
  run_bulk_then_check_counters<membq::DcssQueue>();
}

// The lock-free L5 advances a counter once per announcement (here one per
// eight-item call), by the count its bound view gives; a wrong count
// strands a counter or skips a cell here.
TEST(QueueConcurrentTest, LockFreeOptimalBulkRangeAdvanceNeverStrandsCounter) {
  run_bulk_then_check_counters<membq::LockFreeOptimalQueue>(
      std::size_t{5} /* max_threads */);
}

}  // namespace
