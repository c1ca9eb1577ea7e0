// Single-threaded semantics: FIFO order, full and empty behavior, and
// wraparound across many ring rounds, on every linearizable row and role
// ring of workload/rows.hpp; then the L1 overhead model and the ring
// handles' counter floors.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/scq_ring.hpp"
#include "common/counting_alloc.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "queue_rows.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "queues/segment_queue.hpp"
#include "telemetry/counters.hpp"
#include "workload/bulk.hpp"
#include "workload/driver.hpp"

namespace {

// Values stay distinct (L2's contract) and well under the reserved ranges.
std::uint64_t val(std::uint64_t i) { return 1000 + i; }

template <class Q>
void check_fifo_full_empty(Q& q, std::size_t cap) {
  typename Q::Handle h(q);
  std::uint64_t out = 0;

  EXPECT_FALSE(h.try_dequeue(out)) << "fresh queue must be empty";
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_TRUE(h.try_enqueue(val(i))) << "enqueue " << i << " of " << cap;
  }
  EXPECT_FALSE(h.try_enqueue(val(cap))) << "queue at capacity must refuse";
  for (std::size_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(h.try_dequeue(out)) << "dequeue " << i;
    EXPECT_EQ(out, val(i)) << "FIFO order violated at " << i;
  }
  EXPECT_FALSE(h.try_dequeue(out)) << "drained queue must be empty";
}

template <class Q>
void check_wraparound(Q& q, std::size_t cap) {
  typename Q::Handle h(q);
  std::uint64_t out = 0;
  std::uint64_t next_in = 0, next_out = 0;
  // Interleaved enqueue/dequeue far past capacity: every ring must handle
  // many round transitions (cycle flips, versioned-⊥ round bumps).
  for (std::size_t i = 0; i < cap * 20; ++i) {
    ASSERT_TRUE(h.try_enqueue(val(next_in++)));
    ASSERT_TRUE(h.try_enqueue(val(next_in++)));
    ASSERT_TRUE(h.try_dequeue(out));
    EXPECT_EQ(out, val(next_out++));
    ASSERT_TRUE(h.try_dequeue(out));
    EXPECT_EQ(out, val(next_out++));
  }
}

using membq::rows_test::for_each_queue_row;
using membq::rows_test::kLinearizableRow;
using membq::rows_test::register_per_row;

// The relaxed rows keep no global FIFO order, so these two checks run on
// the linearizable rows; the relaxed rows' single-handle check is the
// per-shard replay of ModelCheckerTest.

// QueueBasicTest.<stem>FifoFullEmpty, one test per row. K=3 on the L1
// rows: a segment size that does not divide C.
[[maybe_unused]] const bool kFifoFullEmptyRegistered = register_per_row(
    "QueueBasicTest", kLinearizableRow, [](auto) { return "FifoFullEmpty"; },
    [](auto row) {
      auto q = row.make(8, /*threads=*/4, /*seg_size=*/3);
      check_fifo_full_empty(*q, 8);
    });

// The lock-free L5 cycles every cell through its round-versioned bottoms
// and re-announces the handle's record per op; on the L1 rows (K=2) every
// round turns segments over, through the reclamation domain on the
// lock-free chain.
TEST(QueueBasicTest, WraparoundAllQueues) {
  for_each_queue_row([](auto row) {
    if (!kLinearizableRow(row)) return;
    SCOPED_TRACE(row.name);
    auto q = row.make(4, /*threads=*/2, /*seg_size=*/2);
    check_wraparound(*q, 4);
  });
}

TEST(QueueBasicTest, SegmentQueuePredictedOverheadModelShape) {
  // The Θ(C/K + T·K) model must be convex in K with an interior minimum
  // near sqrt(C/T).
  const std::size_t c = 4096, t = 4;
  const std::size_t at_small = membq::SegmentQueue::predicted_overhead_bytes(
      c, 2, t);
  const std::size_t at_sqrt = membq::SegmentQueue::predicted_overhead_bytes(
      c, 32, t);
  const std::size_t at_large = membq::SegmentQueue::predicted_overhead_bytes(
      c, c, t);
  EXPECT_LT(at_sqrt, at_small);
  EXPECT_LT(at_sqrt, at_large);
}

// The model in counted bytes: fill a segment queue to C on one thread and
// turn one segment over (K dequeues, K enqueues), so the full chain also
// holds the drained head segment, the one segment a single thread keeps
// in flight. The counting allocator's overhead (live bytes minus the
// elements) must match the model at T = 1 to within one segment header,
// the header the model charges for that segment twice.
TEST(QueueBasicTest, SegmentQueuePredictedOverheadMatchesCountedBytes) {
  const std::size_t c = 1024, k = 32;
  {
    membq::SegmentQueue warm(4, 2);  // first-use state outside the queue
    std::uint64_t out = 0;
    ASSERT_TRUE(warm.try_enqueue(1));
    ASSERT_TRUE(warm.try_dequeue(out));
  }
  auto& alloc = membq::AllocCounter::instance();
  const std::size_t before = alloc.live_bytes();
  membq::SegmentQueue q(c, k);
  std::uint64_t next = 1;
  for (std::size_t i = 0; i < c; ++i) ASSERT_TRUE(q.try_enqueue(next++));
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(q.try_dequeue(out));
  }
  for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(q.try_enqueue(next++));
  const std::size_t counted = alloc.live_bytes() - before - q.element_bytes();
  const std::size_t predicted =
      membq::SegmentQueue::predicted_overhead_bytes(c, k, 1);
  const std::size_t header = sizeof(void*);  // a segment's `next` pointer
  EXPECT_LE(counted, predicted + header);
  EXPECT_GE(counted + header, predicted);
}

TEST(QueueBasicTest, SegmentQueueElementBytesTracksSize) {
  membq::SegmentQueue q(16, 4);
  EXPECT_EQ(q.element_bytes(), 0u);
  membq::SegmentQueue::Handle h(q);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(h.try_enqueue(val(i)));
  EXPECT_EQ(q.element_bytes(), 5 * sizeof(std::uint64_t));
}

// Counter floors: a ring handle keeps the last value it loaded of the
// other role's counter and reloads it only when the floor fails a gate.
// One thread drives two handles of one ring, switching between them at
// random and leaving one idle for up to 4000 calls, so the idle handle's
// floors fall far behind the counters. Every verdict must still match a
// std::deque model exactly: full exactly at size C, empty exactly at 0,
// values in FIFO order, a bulk call's accepted count exactly the room
// (or the size). A stale floor may cost a reload, never a verdict. The
// lock-free L5 keeps no floors; it runs the same check for its bulk body,
// with calls of up to kBulk+1 items, so the longest span two announcements.
template <class Q>
void check_stale_floors(Q& q, std::size_t cap, std::size_t max_call = 5) {
  using membq::workload::detail::xorshift64;
  SCOPED_TRACE(std::string(Q::kName) + " C=" + std::to_string(cap));
  typename Q::Handle a(q), b(q);
  typename Q::Handle* const handles[] = {&a, &b};
  std::deque<std::uint64_t> model;
  std::uint64_t rng = 0x5eed0000 + cap;
  std::uint64_t next = 1;
  std::vector<std::uint64_t> buf(max_call);
  for (std::size_t calls = 0; calls < 60000;) {
    auto& h = *handles[xorshift64(rng) & 1];
    const std::size_t run = 1 + xorshift64(rng) % 4000;
    // Enqueue share of this run: 1/8, 4/8 or 7/8, so runs reach both ends.
    const std::uint64_t enq_eighths = 1 + 3 * (xorshift64(rng) % 3);
    for (std::size_t i = 0; i < run; ++i, ++calls) {
      const std::uint64_t r = xorshift64(rng);
      const bool enq = (r & 7) < enq_eighths;
      // Half the calls take one item; the rest up to max_call, through the
      // native bulk body where the ring has one (its continuation steps
      // test the same floor).
      const std::size_t n = (r >> 3) % 2 == 0 ? 1 : 1 + (r >> 4) % buf.size();
      if (enq) {
        for (std::size_t j = 0; j < n; ++j) buf[j] = next + j;
        const std::size_t room = cap - model.size();
        const std::size_t got = membq::workload::enqueue_bulk(h, buf.data(), n);
        ASSERT_EQ(got, std::min(n, room))
            << "enqueue of " << n << " at size " << model.size();
        for (std::size_t j = 0; j < got; ++j) model.push_back(next++);
      } else {
        const std::size_t got = membq::workload::dequeue_bulk(h, buf.data(), n);
        ASSERT_EQ(got, std::min(n, model.size()))
            << "dequeue of " << n << " at size " << model.size();
        for (std::size_t j = 0; j < got; ++j) {
          ASSERT_EQ(buf[j], model.front()) << "FIFO order";
          model.pop_front();
        }
      }
    }
  }
}

TEST(QueueFloorTest, StaleFloorsKeepExactVerdicts) {
  for (const std::size_t cap : {1, 2, 3, 8, 64}) {
    {
      membq::DistinctQueue q(cap);
      check_stale_floors(q, cap);
    }
    {
      membq::LlscQueue q(cap);
      check_stale_floors(q, cap);
    }
    {
      membq::DcssQueue q(cap, 2);
      check_stale_floors(q, cap);
    }
    {
      membq::ScqRing q(cap);
      check_stale_floors(q, cap);
    }
    {
      membq::LockFreeOptimalQueue q(cap, 2);
      check_stale_floors(q, cap, membq::LockFreeOptimalQueue::kBulk + 1);
    }
  }
}

// floor_reload counts reloads of a stale floor. One handle alternating
// enqueue and dequeue on a half-full ring reloads its head floor about
// once per C/2 enqueues and its tail floor about once per C/2 dequeues,
// so reloads stay far under 1% of calls; on every call before floors
// there was one load of the other role's counter.
template <class Q>
void check_floor_reloads_rare(Q& q) {
  SCOPED_TRACE(Q::kName);
  constexpr std::size_t kCalls = 100000;
  typename Q::Handle h(q);
  std::uint64_t next = 1;
  for (std::size_t i = 0; i < q.capacity() / 2; ++i) {
    ASSERT_TRUE(h.try_enqueue(next++));
  }
  const auto before = membq::telemetry::snapshot();
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < kCalls / 2; ++i) {
    ASSERT_TRUE(h.try_enqueue(next++));
    ASSERT_TRUE(h.try_dequeue(out));
  }
  const std::uint64_t reloads = membq::telemetry::snapshot().delta_since(
      before)[membq::telemetry::Counter::k_floor_reload];
  EXPECT_GT(reloads, 0u) << "the counter must see the floors' reloads";
  EXPECT_LT(reloads * 100, kCalls) << reloads << " reloads";
}

TEST(QueueFloorTest, FloorReloadsStayUnderOnePercentOfCalls) {
  if (!membq::telemetry::enabled()) {
    GTEST_SKIP() << "telemetry compiled out (MEMBQ_TELEMETRY=OFF)";
  }
  constexpr std::size_t kCap = 4096;
  {
    membq::DistinctQueue q(kCap);
    check_floor_reloads_rare(q);
  }
  {
    membq::LlscQueue q(kCap);
    check_floor_reloads_rare(q);
  }
  {
    membq::DcssQueue q(kCap, 2);
    check_floor_reloads_rare(q);
  }
}

}  // namespace
