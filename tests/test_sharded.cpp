// The sharded elastic layer: router policies (affinity, the ring-order
// spill and steal sweep), the per-shard capacity bound, the relaxed-FIFO
// contract under real threads, the steal-storm stress, and the telemetry
// counters.
// The registry rows get the same relaxed checkers again via
// test_model_checker.cpp's coverage table; this file owns the
// sharded-specific behaviors the generic table cannot express.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vyukov_queue.hpp"
#include "model_checker.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "reclaim/epoch.hpp"
#include "sharded/sharded_queue.hpp"
#include "telemetry/counters.hpp"

namespace {

using membq::sharded::ShardedQueue;
using membq::model::Role;

using ShardedVyukov = ShardedQueue<membq::VyukovQueue>;
using SegmentEbr = membq::LockFreeSegmentQueue<membq::reclaim::EpochDomain>;
using ShardedSegment = ShardedQueue<SegmentEbr>;

std::unique_ptr<ShardedVyukov> make_vyukov(std::size_t cap,
                                           std::size_t shards = 4) {
  return std::make_unique<ShardedVyukov>(cap, shards, [](std::size_t per) {
    return std::make_unique<membq::VyukovQueue>(per);
  });
}

std::unique_ptr<ShardedSegment> make_segment(std::size_t cap,
                                             std::size_t shards = 4) {
  return std::make_unique<ShardedSegment>(cap, shards, [](std::size_t per) {
    return std::make_unique<SegmentEbr>(per, /*seg_size=*/0,
                                        /*max_threads=*/16);
  });
}

TEST(ShardedTest, CapacityIsShardCountTimesPerShardBound) {
  auto q = make_vyukov(16, 4);
  EXPECT_EQ(q->shard_count(), 4u);
  EXPECT_EQ(q->per_shard_capacity(), 4u);
  EXPECT_EQ(q->capacity(), 16u);

  // Non-divisible capacities round UP to shards × ⌈C/N⌉ — the total bound
  // is never BELOW the requested capacity (it used to floor, silently
  // shrinking a cap-10 request to 8 slots).
  auto ragged = make_vyukov(10, 4);
  EXPECT_EQ(ragged->per_shard_capacity(), 3u);
  EXPECT_EQ(ragged->capacity(), 12u);
  EXPECT_GE(ragged->capacity(), 10u);

  // Degenerate requests still provision one slot per shard (a Vyukov base
  // needs per-shard ≥ 2 to actually hold the bound, so this checks the
  // accessors, not occupancy).
  auto tiny = make_vyukov(2, 4);
  EXPECT_EQ(tiny->per_shard_capacity(), 1u);
  EXPECT_EQ(tiny->capacity(), 4u);
}

// The acceptance test for the bound: exactly N × per-shard values are
// accepted through one handle (the spill sweep finds every free slot),
// the next enqueue refuses, and after draining exactly that many the
// queue reports empty.
TEST(ShardedTest, TotalBoundIsExactlyNTimesPerShardBound) {
  for (std::size_t shards : {1u, 2u, 4u}) {
    auto q = make_vyukov(16, shards);
    const std::size_t bound = q->capacity();
    EXPECT_EQ(bound, shards * q->per_shard_capacity());
    typename ShardedVyukov::Handle h(*q);
    for (std::size_t i = 0; i < bound; ++i) {
      ASSERT_TRUE(h.try_enqueue(100 + i)) << "refused below the bound at "
                                          << i << " (shards=" << shards
                                          << ")";
    }
    EXPECT_FALSE(h.try_enqueue(999)) << "accepted beyond N×per-shard";
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < bound; ++i) {
      ASSERT_TRUE(h.try_dequeue(out)) << "lost a value at " << i;
    }
    EXPECT_FALSE(h.try_dequeue(out)) << "invented a value past the drain";
  }
}

TEST(ShardedTest, AffinityKeepsAProducerOnItsHomeShardUntilFull) {
  auto q = make_vyukov(16, 4);
  typename ShardedVyukov::Handle h(*q, /*home=*/2);
  EXPECT_EQ(h.home_shard(), 2u);
  for (std::size_t i = 0; i < q->per_shard_capacity(); ++i) {
    ASSERT_TRUE(h.try_enqueue(i));
    EXPECT_EQ(h.last_enqueue_shard(), 2u) << "spilled below the home bound";
  }
  // Home full: the spill sweep lands the overflow on home+1.
  ASSERT_TRUE(h.try_enqueue(1000));
  EXPECT_EQ(h.last_enqueue_shard(), 3u);
}

// Default Handles take their homes round-robin: 0, 1, 2, 3, then 0 again.
// The queue is built with the two-argument shard factory exactly as
// membq-bench/src/panel.hpp writes its sharded row, so the
// topo::MemPolicySpec tag, VyukovQueue's second parameter and the
// router's two-argument dispatch must keep compiling until that file
// drops the parameter.
TEST(ShardedTest, DefaultHandlesTakeHomesRoundRobin) {
  using namespace membq;
  const std::size_t c = 4096;
  auto q = std::make_unique<sharded::ShardedQueue<VyukovQueue>>(
      c, 4, [](std::size_t per_shard, const topo::MemPolicySpec& spec) {
        return std::make_unique<VyukovQueue>(per_shard, spec);
      });
  for (std::size_t want : {0u, 1u, 2u, 3u, 0u}) {
    const ShardedVyukov::Handle h(*q);
    EXPECT_EQ(h.home_shard(), want);
  }
}

TEST(ShardedTest, DequeueStealsFromNonHomeShardBeforeReportingEmpty) {
  auto q = make_vyukov(16, 4);
  typename ShardedVyukov::Handle producer(*q, /*home=*/3);
  ASSERT_TRUE(producer.try_enqueue(42));

  typename ShardedVyukov::Handle consumer(*q, /*home=*/0);
  std::uint64_t out = 0;
  ASSERT_TRUE(consumer.try_dequeue(out)) << "reported empty with a value "
                                            "in another shard";
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(consumer.last_dequeue_shard(), 3u);
  EXPECT_FALSE(consumer.try_dequeue(out));
}

// Relaxed-FIFO model replay (single handle, per-shard reference deques)
// on both registry bases, distinct and repeating values.
TEST(ShardedTest, VyukovBaseMatchesPerShardModel) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    auto q = make_vyukov(16, 4);
    membq::model::check_sharded_against_model(*q, seed, 6000);
  }
  // Repeating values at the smallest per-shard bound a per-slot-seq ring
  // supports (2 — at 1 the round encodings collide; see sharded_queue.hpp).
  auto tiny = make_vyukov(8, 4);
  membq::model::check_sharded_against_model(*tiny, 21, 4000,
                                            membq::model::Values::kRepeating);
}

TEST(ShardedTest, SegmentEbrBaseMatchesPerShardModel) {
  for (std::uint64_t seed : {11ull, 12ull}) {
    auto q = make_segment(16, 4);
    membq::model::check_sharded_against_model(*q, seed, 4000);
  }
}

// Real-thread exactly-once / no-loss / per-producer-per-shard FIFO.
TEST(ShardedTest, ConcurrentRelaxedFifoVyukov) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto q = make_vyukov(64, 4);
    membq::model::check_sharded_relaxed_fifo(*q, /*threads=*/4,
                                             /*ops_per_thread=*/4000, seed);
  }
}

TEST(ShardedTest, ConcurrentRelaxedFifoSegmentEbr) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    auto q = make_segment(64, 4);
    membq::model::check_sharded_relaxed_fifo(*q, /*threads=*/4,
                                             /*ops_per_thread=*/2000, seed);
  }
}

// Steal storm: every consumer homed on shard 0 while producers spread
// across all four shards. Three quarters of the work can only drain via
// the steal path; the ledger still requires exactly-once and no loss.
TEST(ShardedTest, StealStormAllConsumersHomedOnOneShard) {
  const std::vector<Role> roles = {Role::kProducer, Role::kProducer,
                                   Role::kProducer, Role::kProducer,
                                   Role::kConsumer, Role::kConsumer,
                                   Role::kConsumer, Role::kConsumer};
  const std::vector<std::size_t> homes = {0, 1, 2, 3, 0, 0, 0, 0};
  for (std::uint64_t seed : {5ull, 6ull}) {
    auto q = make_vyukov(64, 4);
    const auto before = membq::telemetry::snapshot();
    membq::model::check_sharded_relaxed_fifo(*q, /*threads=*/8,
                                             /*ops_per_thread=*/2000, seed,
                                             roles, homes);
    if (membq::telemetry::enabled()) {
      const auto delta = membq::telemetry::snapshot().delta_since(before);
      EXPECT_GT(delta[membq::telemetry::Counter::k_shard_steal], 0u)
          << "a steal storm that never stole";
    }
  }
}

TEST(ShardedTest, TelemetryCountersTrackTheRouter) {
  if (!membq::telemetry::enabled()) GTEST_SKIP() << "telemetry off";
  using membq::telemetry::Counter;
  auto q = make_vyukov(16, 4);
  typename ShardedVyukov::Handle h(*q, /*home=*/0);

  auto mark = membq::telemetry::snapshot();
  ASSERT_TRUE(h.try_enqueue(1));
  std::uint64_t out = 0;
  ASSERT_TRUE(h.try_dequeue(out));
  auto delta = membq::telemetry::snapshot().delta_since(mark);
  EXPECT_EQ(delta[Counter::k_shard_affinity_hit], 2u);
  EXPECT_EQ(delta[Counter::k_shard_steal], 0u);

  // Fill home: the spilled value is not an affinity hit.
  for (std::size_t i = 0; i < q->per_shard_capacity(); ++i) {
    ASSERT_TRUE(h.try_enqueue(i));
  }
  mark = membq::telemetry::snapshot();
  ASSERT_TRUE(h.try_enqueue(99));
  delta = membq::telemetry::snapshot().delta_since(mark);
  EXPECT_EQ(delta[Counter::k_shard_affinity_hit], 0u);

  // A consumer homed elsewhere must count its cross-shard dequeues as
  // steals. The spilled value sits on shard 1, the thief's home; the
  // rest it steals from shard 0.
  typename ShardedVyukov::Handle thief(*q, /*home=*/1);
  mark = membq::telemetry::snapshot();
  std::size_t got = 0;
  while (thief.try_dequeue(out)) ++got;
  delta = membq::telemetry::snapshot().delta_since(mark);
  EXPECT_EQ(got, q->per_shard_capacity() + 1);
  EXPECT_EQ(delta[Counter::k_shard_affinity_hit], 1u);
  EXPECT_EQ(delta[Counter::k_shard_steal], q->per_shard_capacity());
}

// Spill and steal follow one sweep rule: the home shard, then home+1,
// home+2, … in ring order. A producer homed at 2 fills shard 2, then
// shards 3, 0 and 1, and is refused only when all four are full; a
// consumer homed at 1 drains shards 1, 2, 3 and 0 in that order, each in
// its own FIFO order, and reports empty only after the last.
TEST(ShardedTest, SpillAndStealSweepShardsInRingOrder) {
  auto q = make_vyukov(16, 4);  // per-shard 4
  const std::size_t per = q->per_shard_capacity();
  ASSERT_EQ(per, 4u);
  const std::vector<std::size_t> spill_order = {2, 3, 0, 1};
  typename ShardedVyukov::Handle producer(*q, /*home=*/2);
  for (std::uint64_t v = 0; v < q->capacity(); ++v) {
    ASSERT_TRUE(producer.try_enqueue(v)) << "refused below the bound at " << v;
    EXPECT_EQ(producer.last_enqueue_shard(), spill_order[v / per])
        << "value " << v;
  }
  EXPECT_FALSE(producer.try_enqueue(999)) << "accepted beyond N×per-shard";

  // {shard, first value it holds}, in the consumer's sweep order.
  const std::vector<std::pair<std::size_t, std::uint64_t>> drain = {
      {1, 12}, {2, 0}, {3, 4}, {0, 8}};
  typename ShardedVyukov::Handle consumer(*q, /*home=*/1);
  for (const auto& [shard, first] : drain) {
    for (std::uint64_t v = first; v < first + per; ++v) {
      std::uint64_t out = 0;
      ASSERT_TRUE(consumer.try_dequeue(out))
          << "reported empty with shard " << shard << " unread";
      EXPECT_EQ(consumer.last_dequeue_shard(), shard);
      EXPECT_EQ(out, v);
    }
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(consumer.try_dequeue(out)) << "invented a value past the drain";
}

}  // namespace
