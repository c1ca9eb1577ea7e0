// Reclaim subsystem: epoch advancement and hazard-scan correctness, the
// accounting contract (ReclaimCounter / per-domain backlog), multi-thread
// churn stress (UAF shows up under ASan, races under TSan, leaks via the
// counting allocator), and lock-free L1 specifics: a Wing–Gong
// linearizability smoke over real recorded histories, and the full
// verdict's burn of a stalled claim and its resumed walk, driven by a test
// peer.
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/history.hpp"
#include "adversary/linearizability.hpp"
#include "common/barrier.hpp"
#include "model_checker.hpp"
#include "common/counting_alloc.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/reclaim.hpp"

namespace membq {

// Reaches into a LockFreeSegmentQueue for single-threaded tests only (the
// queue befriends it): claims a slot the way an enqueuer does and never
// fills it, and finds slots by position.
struct LockFreeSegmentQueuePeer {
  // Claims the next slot of tail_'s segment, which must have one, and
  // returns it unfilled: its claimer stalls for good.
  template <class Q>
  static std::atomic<std::uint64_t>& claim_and_stall(Q& q) {
    auto* t = q.tail_.load();
    const std::uint64_t i = t->enq.fetch_add(1);
    EXPECT_LT(i, q.seg_size());
    return t->slots()[i];
  }

  template <class Q>
  static std::atomic<std::uint64_t>& slot_at(Q& q, std::uint64_t pos) {
    auto* s = q.head_.load();
    while (pos >= s->base + q.seg_size()) s = s->next.load();
    return s->slots()[pos - s->base];
  }
};

}  // namespace membq

namespace {

using membq::LockFreeSegmentQueuePeer;
using membq::reclaim::EpochDomain;
using membq::reclaim::HazardDomain;
using membq::reclaim::ReclaimCounter;

// A retirable object whose deleter bumps a shared counter, so tests can
// observe exactly when reclamation happens.
struct Tracked {
  explicit Tracked(std::atomic<int>* c) : freed(c) {}
  std::atomic<int>* freed;
  std::uint64_t canary = 0xC0FFEE;
};

void tracked_deleter(void* p) {
  auto* t = static_cast<Tracked*>(p);
  t->freed->fetch_add(1);
  delete t;
}

// ---- EpochDomain units ---------------------------------------------------

TEST(ReclaimTest, EpochFreesAfterQuiescence) {
  std::atomic<int> freed{0};
  EpochDomain domain(2);
  EpochDomain::ThreadHandle h(domain);
  h.retire(new Tracked(&freed), sizeof(Tracked), &tracked_deleter);
  EXPECT_EQ(freed.load(), 0) << "retire must defer, not free";
  EXPECT_GT(domain.retired_bytes(), 0u);
  h.flush();  // nobody pinned: three amnesty rounds cross the horizon
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.retired_bytes(), 0u);
}

TEST(ReclaimTest, EpochPinnedReaderBlocksReclamation) {
  std::atomic<int> freed{0};
  EpochDomain domain(2);
  EpochDomain::ThreadHandle reader(domain);
  EpochDomain::ThreadHandle writer(domain);
  {
    EpochDomain::ThreadHandle::Guard g(reader);  // pins the current epoch
    writer.retire(new Tracked(&freed), sizeof(Tracked), &tracked_deleter);
    writer.flush();
    writer.flush();
    EXPECT_EQ(freed.load(), 0)
        << "a pinned reader must veto the two-epoch horizon";
  }
  // Pins are sticky past guard exit; the reader must quiesce (or run
  // another operation, or die) before reclamation can pass it.
  writer.flush();
  EXPECT_EQ(freed.load(), 0);
  reader.quiesce();
  writer.flush();
  EXPECT_EQ(freed.load(), 1);
}

TEST(ReclaimTest, EpochBatchAmnestyKeepsLimboBounded) {
  std::atomic<int> freed{0};
  EpochDomain domain(2);
  EpochDomain::ThreadHandle h(domain);
  const std::size_t n = 5 * EpochDomain::kBatch;
  for (std::size_t i = 0; i < n; ++i) {
    h.retire(new Tracked(&freed), sizeof(Tracked), &tracked_deleter);
  }
  // With no concurrent pins, each batch advances the epoch, so the limbo
  // list can never grow past a few batches.
  EXPECT_LE(h.limbo_size(), 3 * EpochDomain::kBatch);
  EXPECT_GT(freed.load(), 0) << "amnesty must have freed earlier batches";
  h.flush();
  EXPECT_EQ(freed.load(), static_cast<int>(n));
}

TEST(ReclaimTest, EpochOrphanedLimboFreedByDomain) {
  std::atomic<int> freed{0};
  {
    EpochDomain domain(2);
    EpochDomain::ThreadHandle blocker(domain);
    EpochDomain::ThreadHandle::Guard g(blocker);
    {
      EpochDomain::ThreadHandle h(domain);
      h.retire(new Tracked(&freed), sizeof(Tracked), &tracked_deleter);
      // Handle dies while `blocker` pins the epoch: the record must be
      // orphaned to the domain, not freed and not leaked.
    }
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_EQ(freed.load(), 1) << "domain destruction must drain orphans";
}

// ---- HazardDomain units --------------------------------------------------

TEST(ReclaimTest, HazardProtectBlocksScan) {
  std::atomic<int> freed{0};
  HazardDomain domain(2);
  HazardDomain::ThreadHandle reader(domain);
  HazardDomain::ThreadHandle writer(domain);

  auto* obj = new Tracked(&freed);
  std::atomic<Tracked*> src{obj};
  {
    HazardDomain::ThreadHandle::Guard g(reader);
    Tracked* p = reader.protect(0, src);
    ASSERT_EQ(p, obj);
    src.store(nullptr);  // unlink from the root, then retire
    writer.retire(obj, sizeof(Tracked), &tracked_deleter);
    writer.flush();
    EXPECT_EQ(freed.load(), 0) << "a published hazard must survive the scan";
    EXPECT_EQ(p->canary, 0xC0FFEEu) << "object must still be readable";
  }
  // Hazards are sticky past guard exit; unpublish, then the scan frees it.
  writer.flush();
  EXPECT_EQ(freed.load(), 0);
  reader.clear_hazards();
  writer.flush();
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.retired_bytes(), 0u);
}

TEST(ReclaimTest, HazardScanTriggersAtThreshold) {
  std::atomic<int> freed{0};
  HazardDomain domain(2);
  HazardDomain::ThreadHandle h(domain);
  const std::size_t threshold = domain.scan_threshold();
  for (std::size_t i = 0; i + 1 < threshold; ++i) {
    h.retire(new Tracked(&freed), sizeof(Tracked), &tracked_deleter);
  }
  EXPECT_EQ(freed.load(), 0) << "below the threshold nothing is scanned";
  h.retire(new Tracked(&freed), sizeof(Tracked), &tracked_deleter);
  EXPECT_EQ(freed.load(), static_cast<int>(threshold))
      << "crossing the threshold must scan-and-free everything unprotected";
}

TEST(ReclaimTest, HazardProtectFollowsRacingSource) {
  // protect() must return the pointer the source holds *after*
  // publication, never a value that was swapped out before the hazard
  // became visible. Single-threaded we can only check the stable case and
  // the re-read-after-change case.
  std::atomic<int> freed{0};
  HazardDomain domain(1);
  HazardDomain::ThreadHandle h(domain);
  auto* a = new Tracked(&freed);
  std::atomic<Tracked*> src{a};
  HazardDomain::ThreadHandle::Guard g(h);
  EXPECT_EQ(h.protect(0, src), a);
  auto* b = new Tracked(&freed);
  src.store(b);
  EXPECT_EQ(h.protect(0, src), b);
  delete a;
  delete b;
}

TEST(ReclaimTest, ReclaimCounterTracksRetireAndReclaim) {
  const std::size_t bytes_before = ReclaimCounter::instance().retired_bytes();
  const std::size_t objs_before =
      ReclaimCounter::instance().retired_objects();
  std::atomic<int> freed{0};
  EpochDomain domain(1);
  EpochDomain::ThreadHandle h(domain);
  h.retire(new Tracked(&freed), 1000, &tracked_deleter);
  EXPECT_GE(ReclaimCounter::instance().retired_bytes(), bytes_before + 1000);
  EXPECT_EQ(ReclaimCounter::instance().retired_objects(), objs_before + 1);
  h.flush();
  EXPECT_EQ(ReclaimCounter::instance().retired_bytes(), bytes_before);
  EXPECT_EQ(ReclaimCounter::instance().retired_objects(), objs_before);
}

// ---- multi-thread churn stress ------------------------------------------
//
// Writers swap fresh objects into shared cells and retire what they
// displace; readers protect cells and check the canary. Any reclamation
// bug is a use-after-free (ASan / canary) or a race (TSan); any
// accounting bug shows as a counting-allocator or deleter-count delta.

template <class Domain>
void churn_stress(std::size_t writers, std::size_t readers,
                  int iters_per_writer) {
  constexpr std::size_t kCells = 8;
  std::atomic<int> freed{0};
  std::atomic<int> allocated{0};
  {
    Domain domain(writers + readers);
    std::atomic<Tracked*> cells[kCells];
    for (auto& c : cells) c.store(new Tracked(&freed));
    allocated += kCells;

    membq::SpinBarrier barrier(writers + readers);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;

    for (std::size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        typename Domain::ThreadHandle h(domain);
        std::uint64_t rng = 0x9e3779b97f4a7c15ull * (w + 1);
        barrier.arrive_and_wait();
        for (int i = 0; i < iters_per_writer; ++i) {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          auto* fresh = new Tracked(&freed);
          allocated.fetch_add(1);
          Tracked* old = cells[rng % kCells].exchange(fresh);
          typename Domain::ThreadHandle::Guard g(h);
          h.retire(old, sizeof(Tracked), &tracked_deleter);
        }
        stop.store(true);
      });
    }
    for (std::size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        typename Domain::ThreadHandle h(domain);
        std::uint64_t rng = 0xD1B54A32D192ED03ull * (r + 1);
        barrier.arrive_and_wait();
        while (!stop.load(std::memory_order_acquire)) {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          typename Domain::ThreadHandle::Guard g(h);
          Tracked* p = h.protect(0, cells[rng % kCells]);
          ASSERT_NE(p, nullptr);
          ASSERT_EQ(p->canary, 0xC0FFEEu) << "use-after-free via " << r;
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& c : cells) delete c.load();
    allocated -= kCells;  // freed directly, not through a deleter
  }
  // Domain destroyed: every retired object's deleter must have run once.
  EXPECT_EQ(freed.load(), allocated.load());
}

TEST(ReclaimChurnTest, EpochDomainUnderContention) {
  churn_stress<EpochDomain>(2, 2, 20000);
}

TEST(ReclaimChurnTest, HazardDomainUnderContention) {
  churn_stress<HazardDomain>(2, 2, 20000);
}

// ---- lock-free L1 on the domains ----------------------------------------

template <class Q>
void churn_queue(Q& q, std::size_t rounds) {
  typename Q::Handle h(q);
  std::uint64_t out = 0;
  std::uint64_t seq = 1;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < q.capacity(); ++i) {
      ASSERT_TRUE(h.try_enqueue(seq++));
    }
    for (std::size_t i = 0; i < q.capacity(); ++i) {
      ASSERT_TRUE(h.try_dequeue(out));
    }
  }
}

TEST(LockFreeSegmentTest, LeakFreeAfterChurnEbr) {
  auto& alloc = membq::AllocCounter::instance();
  const std::size_t live_before = alloc.live_bytes();
  const std::size_t retired_before =
      ReclaimCounter::instance().retired_bytes();
  {
    membq::LockFreeSegmentQueue<EpochDomain> q(64, 4, 4);
    churn_queue(q, 20);
  }
  EXPECT_EQ(alloc.live_bytes(), live_before)
      << "segment churn must not leak through the EBR domain";
  EXPECT_EQ(ReclaimCounter::instance().retired_bytes(), retired_before);
}

TEST(LockFreeSegmentTest, LeakFreeAfterChurnHp) {
  auto& alloc = membq::AllocCounter::instance();
  const std::size_t live_before = alloc.live_bytes();
  {
    membq::LockFreeSegmentQueue<HazardDomain> q(64, 4, 4);
    churn_queue(q, 20);
  }
  EXPECT_EQ(alloc.live_bytes(), live_before)
      << "segment churn must not leak through the HP domain";
}

// Regression (ISSUE 5 satellite): the destructor walks head_->next->...
// with acquire loads paired against the appenders' release CAS — it used
// to use relaxed loads, which only happened to be safe because callers
// join every worker (a full happens-before) before destroying. The chain
// here is left long and populated at destruction (many tiny segments
// appended by racing threads, nothing dequeued), so a walk that missed a
// published next pointer would leak whole segments and trip the counting
// allocator.
template <class Domain>
void destructor_walks_full_chain() {
  auto& alloc = membq::AllocCounter::instance();
  const std::size_t live_before = alloc.live_bytes();
  {
    // capacity 256, seg_size 2: a full queue is a ~128-segment chain.
    membq::LockFreeSegmentQueue<Domain> q(256, 2, 4);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < 4; ++t) {
      workers.emplace_back([&q, t] {
        typename membq::LockFreeSegmentQueue<Domain>::Handle h(q);
        for (std::uint64_t i = 0; i < 64; ++i) {
          h.try_enqueue((t << 32) | (i + 1));
        }
      });
    }
    for (auto& w : workers) w.join();
    // Destructor runs here with the chain still full of elements.
  }
  EXPECT_EQ(alloc.live_bytes(), live_before)
      << "destructor failed to walk (and free) the full segment chain";
}

TEST(LockFreeSegmentTest, DestructorWalksFullChainEbr) {
  destructor_walks_full_chain<EpochDomain>();
}

TEST(LockFreeSegmentTest, DestructorWalksFullChainHp) {
  destructor_walks_full_chain<HazardDomain>();
}

TEST(LockFreeSegmentTest, RetiredBacklogVisibleDuringDrain) {
  membq::LockFreeSegmentQueue<EpochDomain> q(256, 4, 4);
  {
    typename membq::LockFreeSegmentQueue<EpochDomain>::Handle h(q);
    std::uint64_t out = 0;
    for (std::uint64_t i = 1; i <= 256; ++i) ASSERT_TRUE(h.try_enqueue(i));
    for (std::uint64_t i = 1; i <= 256; ++i) ASSERT_TRUE(h.try_dequeue(out));
    // 64 drained segments retired; the EBR batch horizon keeps some of
    // them parked — exactly the backlog E9 must not misread as overhead.
    EXPECT_GT(q.retired_bytes(), 0u);
    h.flush_reclamation();
  }
  EXPECT_EQ(q.retired_bytes(), 0u)
      << "flush with no concurrent pins must drain the whole backlog";
}

// A claim whose enqueuer never fills it is burned by the full verdict
// after kHelpPatience pauses, and the claim limit moves past it: the queue
// still takes C values, and its claimer's late slot CAS fails.
template <class Domain>
void full_verdict_burns_a_stalled_claim() {
  using Q = membq::LockFreeSegmentQueue<Domain>;
  Q q(/*capacity=*/4, /*seg_size=*/2, /*max_threads=*/2);
  auto& stalled = LockFreeSegmentQueuePeer::claim_and_stall(q);  // position 0
  typename Q::Handle h(q);
  for (std::uint64_t v = 1; v <= 3; ++v) ASSERT_TRUE(h.try_enqueue(v));
  // Positions 0-3 reach the handle's first limit, C = 4: this enqueue's
  // full verdict walks from position 0, finds its claim unfilled and
  // burns it, so the limit becomes 5.
  EXPECT_TRUE(h.try_enqueue(4));
  EXPECT_EQ(stalled.load(), Q::kPoison);
  EXPECT_FALSE(h.try_enqueue(5)) << "four values fill a capacity-4 queue";
  std::uint64_t empty = Q::kEmpty;
  EXPECT_FALSE(stalled.compare_exchange_strong(empty, 99))
      << "the stalled claimer's late slot CAS must fail";
  std::uint64_t out = 0;
  for (std::uint64_t v = 1; v <= 4; ++v) {
    ASSERT_TRUE(h.try_dequeue(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(h.try_dequeue(out));
}

TEST(LockFreeSegmentTest, FullVerdictBurnsAStalledClaim) {
  full_verdict_burns_a_stalled_claim<EpochDomain>();
  full_verdict_burns_a_stalled_claim<HazardDomain>();
}

// A handle's repeat full verdicts resume where its last walk ended and
// read no slot that walk saw settled. The peer blanks a value behind that
// end: a walk that read it again would wait for it, burn it and accept the
// enqueue. A dequeue frees one position, so the next enqueue lands and the
// one after it reads only that position.
template <class Domain>
void repeat_full_verdicts_read_no_settled_slot() {
  using Q = membq::LockFreeSegmentQueue<Domain>;
  constexpr std::uint64_t kCap = 64;
  Q q(kCap, /*seg_size=*/8, /*max_threads=*/2);
  typename Q::Handle h(q);
  std::uint64_t next = 1;
  for (std::uint64_t i = 0; i < kCap; ++i) ASSERT_TRUE(h.try_enqueue(next++));
  ASSERT_FALSE(h.try_enqueue(next));  // the first verdict walks all C
  auto& blank = LockFreeSegmentQueuePeer::slot_at(q, kCap / 2);
  const std::uint64_t kept = blank.exchange(Q::kEmpty);
  for (int r = 0; r < 1000; ++r) {
    ASSERT_FALSE(h.try_enqueue(next)) << "refusal " << r;
  }
  std::uint64_t expect = 1, out = 0;
  for (int r = 0; r < 16; ++r) {
    ASSERT_TRUE(h.try_dequeue(out));
    EXPECT_EQ(out, expect++);
    ASSERT_TRUE(h.try_enqueue(next++));
    ASSERT_FALSE(h.try_enqueue(next)) << "round " << r;
  }
  EXPECT_EQ(blank.load(), Q::kEmpty) << "a refusal re-read a settled slot";
  blank.store(kept);
  while (h.try_dequeue(out)) EXPECT_EQ(out, expect++);
  EXPECT_EQ(expect, next);
}

TEST(LockFreeSegmentTest, RepeatFullVerdictsReadNoSettledSlot) {
  repeat_full_verdicts_read_no_settled_slot<EpochDomain>();
  repeat_full_verdicts_read_no_settled_slot<HazardDomain>();
}

// Recorded real-thread histories, checked by the Wing–Gong bounded-queue
// checker via the shared model harness. A tiny capacity plus seg_size=1
// maximizes segment churn inside the recorded window.
TEST(LockFreeSegmentTest, RecordedHistoriesLinearizableEbr) {
  membq::model::expect_linearizable_histories(
      [] {
        return std::make_unique<membq::LockFreeSegmentQueue<EpochDomain>>(
            2, 1, 4);
      },
      /*capacity=*/2, /*threads=*/3, /*ops_per_thread=*/6, {1, 2, 3, 4, 5});
}

TEST(LockFreeSegmentTest, RecordedHistoriesLinearizableHp) {
  membq::model::expect_linearizable_histories(
      [] {
        return std::make_unique<membq::LockFreeSegmentQueue<HazardDomain>>(
            2, 1, 4);
      },
      /*capacity=*/2, /*threads=*/3, /*ops_per_thread=*/6,
      {11, 12, 13, 14, 15});
}

}  // namespace
