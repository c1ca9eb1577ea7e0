// Multithreaded safety for every queue: nothing lost, nothing duplicated,
// and per-producer FIFO order preserved end to end.
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/michael_scott.hpp"
#include "baselines/mutex_ring.hpp"
#include "baselines/role_rings.hpp"
#include "baselines/scq_ring.hpp"
#include "baselines/spsc_ring.hpp"
#include "baselines/vyukov_queue.hpp"
#include "common/barrier.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "core/optimal_queue.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "queues/segment_queue.hpp"
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
//                    at each consumer (prefix-merge property of a FIFO).
template <class Q>
void run_mpmc_audit(Q& q, std::size_t producers, std::size_t consumers,
                    std::uint64_t per_producer) {
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
        if (producer >= producers || seq <= last[producer]) {
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

constexpr std::size_t kCap = 64;
constexpr std::uint64_t kPerProducer = 3000;

TEST(QueueConcurrentTest, DistinctQueueMpmc) {
  membq::DistinctQueue q(kCap);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, LlscQueueMpmc) {
  membq::LlscQueue q(kCap);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, DcssQueueMpmc) {
  membq::DcssQueue q(kCap, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, OptimalQueueMpmc) {
  membq::OptimalQueue q(kCap, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

// The benchmark's two spellings of the one lock-free L5 class.
TEST(QueueConcurrentTest, LockFreeOptimalEbrMpmc) {
  membq::EbrOptimalQueue q(kCap, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, LockFreeOptimalHpMpmc) {
  membq::HpOptimalQueue q(kCap, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, SegmentQueueMpmc) {
  membq::SegmentQueue q(kCap, 8, 4);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, LockFreeSegmentEbrMpmc) {
  membq::LockFreeSegmentQueue<membq::reclaim::EpochDomain> q(kCap, 8, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, LockFreeSegmentHpMpmc) {
  membq::LockFreeSegmentQueue<membq::reclaim::HazardDomain> q(kCap, 8, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, LockFreeSegmentNoReclaimMpmc) {
  membq::LockFreeSegmentQueue<membq::reclaim::NoReclaim> q(kCap, 8, 8);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, VyukovQueueMpmc) {
  membq::VyukovQueue q(kCap);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, ScqRingMpmc) {
  membq::ScqRing q(kCap);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, MichaelScottMpmc) {
  membq::MichaelScottQueue q(kCap);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, MutexRingMpmc) {
  membq::MutexRing q(kCap);
  run_mpmc_audit(q, 2, 2, kPerProducer);
}

TEST(QueueConcurrentTest, MpscRingManyProducersOneConsumer) {
  membq::MpscRing q(kCap);
  run_mpmc_audit(q, 3, 1, kPerProducer);
}

TEST(QueueConcurrentTest, SpmcRingOneProducerManyConsumers) {
  membq::SpmcRing q(kCap);
  run_mpmc_audit(q, 1, 3, kPerProducer);
}

TEST(QueueConcurrentTest, SpscRingPairwise) {
  membq::SpscRing q(kCap);
  run_mpmc_audit(q, 1, 1, 3 * kPerProducer);
}

// A tiny ring under full thread contention crosses round boundaries
// constantly — the regime where stale-CAS bugs (Theorem 3.12's weapon)
// would surface as loss or duplication.
TEST(QueueConcurrentTest, TinyRingHighChurnAllPaperQueues) {
  {
    membq::DistinctQueue q(2);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    membq::LlscQueue q(2);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    membq::DcssQueue q(2, 8);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    membq::OptimalQueue q(2, 8);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    membq::SegmentQueue q(2, 1, 2);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    // Capacity 2 wraps the lock-free L5 ring constantly: every vacate is
    // one round away from the staleness window its DCSS guard closes.
    membq::LockFreeOptimalQueue q(2, 8);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    // seg_size 1: every successful enqueue appends a segment and every
    // drain retires one — maximum pressure on the reclamation domain.
    membq::LockFreeSegmentQueue<membq::reclaim::EpochDomain> q(2, 1, 8);
    run_mpmc_audit(q, 2, 2, 1500);
  }
  {
    membq::LockFreeSegmentQueue<membq::reclaim::HazardDomain> q(2, 1, 8);
    run_mpmc_audit(q, 2, 2, 1500);
  }
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
