// Seeded litmus/stress suite for the relaxed ring memory orders — one
// named scenario per relaxed pairing (see sync/memory_order.hpp and the
// per-site annotations in the queue headers). Every scenario fails with
// the site name on violation, via litmus_harness.hpp's HandoffLedger.
//
// The suite runs natively (real hardware orderings) and in CI's TSan job
// (race detection over the same schedules). Scenarios pinned to
// RelaxedOrders / SeqCstOrders run in every build regardless of the
// MEMBQ_SEQCST_RINGS default, so neither policy can bit-rot.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/role_rings.hpp"
#include "baselines/scq_ring.hpp"
#include "baselines/spsc_ring.hpp"
#include "baselines/vyukov_queue.hpp"
#include "common/barrier.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "litmus_harness.hpp"
#include "queue_rows.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "sync/dcss.hpp"
#include "sync/llsc.hpp"
#include "sync/memory_order.hpp"

namespace {

using membq::litmus::Schedule;
using membq::litmus::stress_handoff;

constexpr std::uint64_t kSeeds[] = {0xA11CE, 0xB0B5EED, 0xC0FFEE};

// ---- L2: distinct(versioned-⊥) ring --------------------------------------

// Message passing through the ring: the enqueue CAS's release must make
// the value visible to the dequeue's acquire cell load in order. With one
// producer and one consumer the ledger's per-consumer check is exact
// global FIFO.
TEST(LitmusTest, L2VersionPublishToObserve) {
  for (const std::uint64_t seed : kSeeds) {
    membq::DistinctQueue q(4);
    stress_handoff("L2 version publish->observe", q, 1, 1, 4000, seed);
  }
}

// Capacity-2 ring under 4x4 traffic: the ring wraps every other ticket,
// so ⊥ versions are reused constantly — the round number inside ⊥ is the
// only thing rejecting a stale wrapped enqueue (expected-side ABA).
TEST(LitmusTest, L2VersionReuseWrapAba) {
  for (const std::uint64_t seed : kSeeds) {
    membq::DistinctQueue q(2);
    stress_handoff("L2 bot-version reuse/ABA", q, 4, 4, 1200, seed);
  }
}

// ---- L3: LL/SC cell + ring ----------------------------------------------

// sc() must be atomic against every load-linked snapshot: N threads each
// complete K successful ll/sc increments; any lost or doubled sc leaves
// the counter off by the difference.
TEST(LitmusTest, L3LlscScAtomicIncrement) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kIncrementsEach = 2000;
  for (const std::uint64_t seed : kSeeds) {
    membq::LLSCCell cell(0);
    membq::SpinBarrier barrier(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Schedule sch(seed, t);
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < kIncrementsEach; ++i) {
          for (;;) {
            const auto link = cell.ll();
            sch.step();  // widen the ll->sc window
            if (cell.sc(link, link.value + 1)) break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(cell.peek(), kThreads * kIncrementsEach)
        << "L3 ll/sc atomic increment: lost/doubled store-conditional "
        << "(seed " << seed << ")";
  }
}

// Deterministic validate pairing: after a foreign sc() lands, both
// validate() and sc() on the stale link must fail — the acquire in
// ll()/validate() against the foreign sc's release is what carries the
// stamp change across threads.
TEST(LitmusTest, L3LlscValidateAfterForeignSc) {
  membq::LLSCCell cell(5);
  membq::SpinBarrier barrier(2);
  bool foreign_sc_ok = false;
  bool stale_validate = true;
  bool stale_sc = true;
  std::thread a([&] {
    const auto link = cell.ll();
    barrier.arrive_and_wait();  // let B store while we hold the link
    barrier.arrive_and_wait();  // B's sc happens-before this point
    stale_validate = cell.validate(link);
    stale_sc = cell.sc(link, 7);
  });
  std::thread b([&] {
    barrier.arrive_and_wait();
    const auto link = cell.ll();
    foreign_sc_ok = cell.sc(link, 42);
    barrier.arrive_and_wait();
  });
  a.join();
  b.join();
  ASSERT_TRUE(foreign_sc_ok) << "L3 validate: uncontended foreign sc failed";
  EXPECT_FALSE(stale_validate)
      << "L3 validate: stale link validated after a foreign sc";
  EXPECT_FALSE(stale_sc)
      << "L3 validate: stale link's sc landed after a foreign sc";
  EXPECT_EQ(cell.peek(), 42u);
}

// Capacity-2 LL/SC ring under 4x4 wrap traffic: the stamp (not a version
// number) is the only stale-enqueue rejection.
TEST(LitmusTest, L3RingTicketHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::LlscQueue q(2);
    stress_handoff("L3 ll/sc ring handoff", q, 4, 4, 1200, seed);
  }
}

// ---- L4: DCSS descriptor publication + ring ------------------------------

// Descriptor install/helping must give exactly-once semantics: writers
// race dcss increments on one word (helpers resolve each other's
// markers); the final value must equal the number of successful dcss
// calls, and a concurrent reader must never observe a marker or a value
// going backwards. Phase 2 checks the second comparand: after the
// condition word flips (happens-before via the barrier), a dcss expecting
// the old condition must fail.
TEST(LitmusTest, L4DcssDescriptorInstallExactlyOnce) {
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kAttemptsEach = 1500;
  for (const std::uint64_t seed : kSeeds) {
    membq::DcssDomain domain(kWriters + 1);
    std::atomic<std::uint64_t> w1{0};
    std::atomic<std::uint64_t> cond{0};
    membq::SpinBarrier barrier(kWriters + 1);
    std::vector<std::uint64_t> successes(kWriters, 0);
    // One byte per writer, not vector<bool>: packed bits written by
    // different threads would themselves be a data race.
    std::vector<std::uint8_t> stale_cond_failed(kWriters, 0);
    std::atomic<bool> reader_ok{true};
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        membq::DcssDomain::ThreadHandle th(domain);
        Schedule sch(seed, t);
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < kAttemptsEach; ++i) {
          const std::uint64_t cur = domain.read(&w1);
          sch.step();  // widen the read->dcss window
          if (th.dcss(&w1, cur, cur + 1, &cond, 0)) ++successes[t];
        }
        barrier.arrive_and_wait();  // phase 1 done
        barrier.arrive_and_wait();  // main flipped cond to 1
        // The flip happens-before this attempt, so the decision's read
        // of the second comparand must see it: the dcss must fail.
        const std::uint64_t cur = domain.read(&w1);
        stale_cond_failed[t] = !th.dcss(&w1, cur, cur + 1, &cond, 0);
      });
    }
    std::thread reader([&] {
      membq::DcssDomain::ThreadHandle th(domain);  // unused slot headroom
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t v = domain.read(&w1);
        if ((v & membq::DcssDomain::kMarkerBit) != 0 || v < last) {
          reader_ok.store(false, std::memory_order_release);
          break;
        }
        last = v;
      }
    });

    barrier.arrive_and_wait();  // start phase 1
    barrier.arrive_and_wait();  // phase 1 done
    cond.store(1);              // flip the second comparand
    barrier.arrive_and_wait();  // release phase 2
    for (auto& w : writers) w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    std::uint64_t total = 0;
    for (const auto s : successes) total += s;
    ASSERT_EQ(w1.load(), total)
        << "L4 DCSS descriptor install: successes and increments disagree "
        << "(helper resolved a marker twice or dropped one; seed " << seed
        << ")";
    ASSERT_TRUE(reader_ok.load())
        << "L4 DCSS read: marker leaked or value went backwards (seed "
        << seed << ")";
    for (std::size_t t = 0; t < kWriters; ++t) {
      EXPECT_TRUE(stale_cond_failed[t])
          << "L4 DCSS second comparand: dcss succeeded against a "
          << "happened-before condition flip (writer " << t << ", seed "
          << seed << ")";
    }
  }
}

// Capacity-2 DCSS ring under 4x4 wrap traffic: the round inside ⊥
// rejects a stale enqueue CAS, and the vacate's second comparand, head_,
// rejects a stale vacate.
TEST(LitmusTest, L4RingHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::DcssQueue q(2, /*max_threads=*/9);
    stress_handoff("L4 dcss ring handoff", q, 4, 4, 1200, seed);
  }
}

// Dequeue-side tail gate (L3, L4): a dequeuer that vacated ticket t while
// tail was still t let head pass tail. In L3, whose ⊥ carries no round,
// the ⊥ back under a current ticket also let a second enqueuer holding t
// land another value there, a round behind head — a FIFO inversion, or
// head stranded past tail for good (a hang). More threads than CPUs on a
// 2-slot ring preempt writers inside that window; on a 4-CPU host 16
// threads hit it within a run.
TEST(LitmusTest, OversubscribedL3L4FillEachTicketOnce) {
  for (const std::uint64_t seed : kSeeds) {
    membq::LlscQueue q(2);
    stress_handoff("oversubscribed L3 ring", q, 8, 8, 1200, seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    membq::DcssQueue q(2, /*max_threads=*/17);
    stress_handoff("oversubscribed L4 ring", q, 8, 8, 1200, seed);
  }
}

// ---- Counter floors: sleeper handles across many wraps -------------------

// A ring handle's copy of the other role's counter (its floor) may be any
// number of rounds stale. Capacity 2, and one sleeper handle per role
// (the third producer and the third consumer) makes one call, parks while
// the others wrap the ring 100 rounds, then resumes. A floor that passed
// a gate its counter would fail vacates a cell before tail_ passed its
// ticket (a refilled cell: the ledger reports a duplicate or an inversion)
// or lands a wrapped write over an unconsumed cell (a lost value: the
// consumers never reach their quota, a hang that CI's timeout fails).
// scq loads the other counter fresh on its verdict path: the control.
TEST(LitmusTest, SleeperHandlesSurviveHundredWraps) {
  constexpr std::size_t kRounds = 100;
  for (const std::uint64_t seed : kSeeds) {
    {
      membq::DistinctQueue q(2);
      stress_handoff("L2 sleeper floors", q, 3, 3, 1200, seed, kRounds);
    }
    {
      membq::LlscQueue q(2);
      stress_handoff("L3 sleeper floors", q, 3, 3, 1200, seed, kRounds);
    }
    {
      membq::DcssQueue q(2, /*max_threads=*/7);
      stress_handoff("L4 sleeper floors", q, 3, 3, 1200, seed, kRounds);
    }
    {
      membq::ScqRing q(2);
      stress_handoff("SCQ sleeper verdict loads", q, 3, 3, 1200, seed,
                     kRounds);
    }
  }
}

// ---- Baselines: SCQ cycle handoff, Vyukov ticket-vs-slot ----------------

// Capacity-2 cycle-tagged ring: state 2r -> 2r+1 -> 2(r+1) handoffs wrap
// every other ticket; a cycle-tag CAS observed out of order duplicates or
// loses a slot.
TEST(LitmusTest, ScqCycleHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::ScqRing q(2);
    stress_handoff("SCQ cycle handoff", q, 4, 4, 1200, seed);
  }
}

// Vyukov's value word is NOT atomic: the seq release/acquire pairing is
// the only thing keeping the plain cell.value access race-free. A torn
// or early value read surfaces as an invented value in the ledger (and
// as a plain data race under TSan).
TEST(LitmusTest, VyukovTicketVsSlotVisibility) {
  for (const std::uint64_t seed : kSeeds) {
    membq::VyukovQueue q(2);
    stress_handoff("Vyukov ticket-vs-slot visibility", q, 4, 4, 1200, seed);
  }
}

// ---- Bulk ops: one-reservation batches, per-slot publication ------------

// Bulk release ↔ consumer ACQUIRE pairing: producers land whole batches
// (one ticket-range CAS, then a per-slot release sweep) while consumers
// take one item per call — each dequeue acquires only its own slot's seq
// word. If the bulk publication sweep were a single trailing release
// store (or a relaxed sweep — the planted-bug check below), slots before
// the last would hand their plain value word to the consumer without a
// pairing: an invented/torn value in the ledger, and a plain data race
// under TSan. (Verified once by planting relaxed stores in the Vyukov bulk
// sweeps: TSan reported the race on cell.value and this scenario's
// ledger caught invented values natively.)
TEST(LitmusTest, BulkPublishToScalarAcquire) {
  for (const std::uint64_t seed : kSeeds) {
    membq::VyukovQueue q(4);
    membq::litmus::stress_handoff_bulk(
        "Vyukov bulk publish -> scalar acquire", q, 2, 2, 2000,
        /*pbatch=*/3, /*cbatch=*/1, seed);
  }
}

// Wrap-around across a reserved range: capacity 4 with batch 3 makes
// almost every reservation straddle the ring seam, so one batch's slots
// span two rounds of seq values. A bulk path that computes the published
// seq from the base ticket instead of per-slot (pos+i+1) corrupts the
// round handoff exactly here. Bulk on both sides.
TEST(LitmusTest, BulkWrapAcrossReservedRange) {
  for (const std::uint64_t seed : kSeeds) {
    membq::VyukovQueue q(4);
    membq::litmus::stress_handoff_bulk("Vyukov bulk wrap", q, 4, 4, 1200,
                                       /*pbatch=*/3, /*cbatch=*/3, seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    membq::ScqRing q(4);
    membq::litmus::stress_handoff_bulk("SCQ bulk cycle wrap", q, 4, 4, 1200,
                                       /*pbatch=*/3, /*cbatch=*/3, seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    // L2's bulk dequeue must reject wrapped values via the head bracket
    // (the value word carries no round); the distinct-values ledger tags
    // make a wrong-round delivery a duplicate or an invented value.
    membq::DistinctQueue q(4);
    membq::litmus::stress_handoff_bulk("L2 bulk wrap bracket", q, 4, 4, 1200,
                                       /*pbatch=*/3, /*cbatch=*/3, seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    // L3's ⊥ carries no round: a claim past the first takes a ⊥ cell
    // only while tail_ ≤ t, and vacates a value only once tail_ > h and
    // while head_ ≤ h.
    membq::LlscQueue q(4);
    membq::litmus::stress_handoff_bulk("L3 bulk wrap tail/head checks", q, 4,
                                       4, 1200, /*pbatch=*/3, /*cbatch=*/3,
                                       seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    // L4: a claim past the first takes a cell only at its round's ⊥, and
    // vacates under the same tail and head checks as L3, with the fresh
    // head_ load as the DCSS comparand.
    membq::DcssQueue q(4, /*max_threads=*/9);
    membq::litmus::stress_handoff_bulk("L4 bulk wrap DCSS comparands", q, 4,
                                       4, 1200, /*pbatch=*/3, /*cbatch=*/3,
                                       seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    // L5: one announcement writes or vacates up to three cells across the
    // seam, at per-index rounds t+j and h+j, every vacate guarded by the
    // batch's one head_ == h comparand.
    membq::LockFreeOptimalQueue q(4, /*max_threads=*/9);
    membq::litmus::stress_handoff_bulk("L5 bulk wrap per-index rounds", q, 4,
                                       4, 1200, /*pbatch=*/3, /*cbatch=*/3,
                                       seed);
  }
}

// Both memory-order policies pinned, mirroring the scalar pinning tests:
// the bulk paths' audited acq-rel orders and the MEMBQ_SEQCST_RINGS
// fallback both stay compiled and checked in every build.
TEST(LitmusTest, BulkPolicyPinnedHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::BasicVyukovQueue<membq::RelaxedOrders> q(4);
    membq::litmus::stress_handoff_bulk("pinned acq-rel vyukov bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3, seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    membq::BasicVyukovQueue<membq::SeqCstOrders> q(4);
    membq::litmus::stress_handoff_bulk("pinned seq-cst vyukov bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3, seed);
  }
  {
    membq::BasicScqRing<membq::RelaxedOrders> q(4);
    membq::litmus::stress_handoff_bulk("pinned acq-rel scq bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3,
                                       kSeeds[0]);
  }
  {
    membq::BasicDistinctQueue<membq::SeqCstOrders> q(4);
    membq::litmus::stress_handoff_bulk("pinned seq-cst distinct bulk", q, 4,
                                       4, 800, /*pbatch=*/3, /*cbatch=*/3,
                                       kSeeds[0]);
  }
  {
    membq::BasicLlscQueue<membq::RelaxedOrders> q(4);
    membq::litmus::stress_handoff_bulk("pinned acq-rel llsc bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3,
                                       kSeeds[0]);
  }
  {
    membq::BasicLlscQueue<membq::SeqCstOrders> q(4);
    membq::litmus::stress_handoff_bulk("pinned seq-cst llsc bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3,
                                       kSeeds[0]);
  }
  {
    membq::BasicDcssQueue<membq::RelaxedOrders> q(4, /*max_threads=*/9);
    membq::litmus::stress_handoff_bulk("pinned acq-rel dcss bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3,
                                       kSeeds[0]);
  }
  {
    membq::BasicDcssQueue<membq::SeqCstOrders> q(4, /*max_threads=*/9);
    membq::litmus::stress_handoff_bulk("pinned seq-cst dcss bulk", q, 4, 4,
                                       800, /*pbatch=*/3, /*cbatch=*/3,
                                       kSeeds[0]);
  }
}

// Claims past the first cell of an L3/L4 bulk op, oversubscribed: 16
// threads on a 2-slot ring with batches of 2. A batch preempted between
// its first claim and the next cell's read gives the others time to serve
// that ticket and refill its cell a round later (the dequeue's head
// bracket), or to write and serve it (L3's enqueue tail check; in L4 the
// round in ⊥ fails the CAS). Taking such a cell delivers a value a round
// early: the ledger reports a FIFO inversion or a duplicate.
TEST(LitmusTest, BulkOversubscribedL3L4Continuations) {
  for (const std::uint64_t seed : kSeeds) {
    membq::LlscQueue q(2);
    membq::litmus::stress_handoff_bulk("oversubscribed L3 bulk", q, 8, 8,
                                       1200, /*pbatch=*/2, /*cbatch=*/2,
                                       seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    membq::DcssQueue q(2, /*max_threads=*/17);
    membq::litmus::stress_handoff_bulk("oversubscribed L4 bulk", q, 8, 8,
                                       1200, /*pbatch=*/2, /*cbatch=*/2,
                                       seed);
  }
}

// The lock-free L5's bulk body, oversubscribed: 16 threads on a 2-slot
// ring, with calls of kBulk+1 and 2·kBulk+1 items. Each call asks for two
// or three kBulk-item announcements; on two slots the first is already
// short, so the call stops there with the one or two items that fit. A
// preempted helper of a batch wakes up after its record was decided and
// re-announced, so its binds, cell writes, vacates and counter advance
// must all miss; one that lands delivers a value twice, loses one or
// inverts FIFO in the ledger.
TEST(LitmusTest, BulkOversubscribedL5) {
  using membq::LockFreeOptimalQueue;
  constexpr std::size_t kTwoAnnouncements = LockFreeOptimalQueue::kBulk + 1;
  constexpr std::size_t kThreeAnnouncements =
      2 * LockFreeOptimalQueue::kBulk + 1;
  for (const std::uint64_t seed : kSeeds) {
    LockFreeOptimalQueue q(2, /*max_threads=*/16);
    membq::litmus::stress_handoff_bulk(
        "oversubscribed L5 bulk 2/3 announcements", q, 8, 8, 600,
        /*pbatch=*/kTwoAnnouncements, /*cbatch=*/kThreeAnnouncements, seed);
  }
  for (const std::uint64_t seed : kSeeds) {
    LockFreeOptimalQueue q(2, /*max_threads=*/16);
    membq::litmus::stress_handoff_bulk(
        "oversubscribed L5 bulk 3/2 announcements", q, 8, 8, 600,
        /*pbatch=*/kThreeAnnouncements, /*cbatch=*/kTwoAnnouncements, seed);
  }
}

// ---- Every value equal: the vacate guard --------------------------------

// Every enqueue carries one value, so a dequeuer that slept through a
// ring round finds the value it expects back in its cell: Theorem 3.12's
// stale CAS, aimed at the vacate. A ring that lets it land loses a value
// and leaves a ⊥ under a written ticket, on which the dequeuers then spin
// for good; an L4 whose vacate is a plain CAS wedges this way in the
// first round. Eight threads on a 2-slot ring, more than the CPUs of a
// 4-CPU host, get preempted inside that window. Each thread makes kOps
// random enqueue and dequeue calls; enqueued − dequeued must equal what a
// final drain finds. A watchdog aborts the run, naming the row, once a
// thread's call has not returned for kStall.
class EqualValuesLitmusTest : public ::testing::TestWithParam<std::string> {};

template <class R>
void check_equal_values_balance(R row) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOps = 200000;
  constexpr std::uint64_t kValue = 42;
  constexpr auto kStall = std::chrono::seconds(10);
  auto q = row.make(membq::rows_test::capacity_for<R>(2), kThreads + 1,
                    /*seg_size=*/0);
  using Q = typename R::Queue;
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> dequeued{0};
  std::atomic<std::uint64_t> foreign{0};  // dequeued values other than kValue
  std::vector<std::atomic<std::uint64_t>> calls(kThreads);  // returned
  std::atomic<std::size_t> finished{0};
  membq::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      typename Q::Handle h(*q);
      std::uint64_t rng = kSeeds[0] + i;
      std::uint64_t enq = 0, deq = 0, bad = 0, out = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t op = 0; op < kOps; ++op) {
        if ((membq::litmus::next_rng(rng) & 1) != 0) {
          if (h.try_enqueue(kValue)) ++enq;
        } else if (h.try_dequeue(out)) {
          ++deq;
          if (out != kValue) ++bad;
        }
        calls[i].store(op + 1, std::memory_order_relaxed);
      }
      enqueued.fetch_add(enq);
      dequeued.fetch_add(deq);
      foreign.fetch_add(bad);
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  // Watchdog: a thread whose call count stands still for kStall is stuck
  // inside a call. Its call never returns, so the threads cannot be
  // joined: the run aborts instead of hanging.
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::vector<Clock::time_point> moved(kThreads, Clock::now());
  while (finished.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < kThreads; ++i) {
      const std::uint64_t c = calls[i].load(std::memory_order_relaxed);
      if (c != seen[i] || c == kOps) {
        seen[i] = c;
        moved[i] = now;
      } else if (now - moved[i] > kStall) {
        std::fprintf(stderr,
                     "%s: thread %zu stuck in call %llu of %llu for %lld s, "
                     "the ring wedged\n",
                     row.name, i, static_cast<unsigned long long>(c + 1),
                     static_cast<unsigned long long>(kOps),
                     static_cast<long long>(kStall.count()));
        std::abort();
      }
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(foreign.load(), 0u) << row.name << ": a value no one enqueued";
  typename Q::Handle h(*q);
  std::uint64_t drained = 0, out = 0;
  while (h.try_dequeue(out)) ++drained;
  EXPECT_EQ(enqueued.load() - dequeued.load(), drained)
      << row.name << ": " << enqueued.load() << " enqueued, "
      << dequeued.load() << " dequeued";
}

TEST_P(EqualValuesLitmusTest, CountsBalanceWithoutWedging) {
  membq::rows_test::visit_row(
      GetParam(), [](auto row) { check_equal_values_balance(row); });
}

// Every row that accepts repeating values, except the role rings, whose
// contracts admit one producer or one consumer thread only.
INSTANTIATE_TEST_SUITE_P(
    , EqualValuesLitmusTest,
    ::testing::ValuesIn(membq::rows_test::rows_where([](auto row) {
      return row.values == membq::workload::ValueDomain::kAny &&
             !row.single_producer && !row.single_consumer;
    })),
    membq::rows_test::row_id);

// ---- Role rings (contracts: single consumer / single producer) ----------

TEST(LitmusTest, MpscRoleRingHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::MpscRing q(4);
    stress_handoff("MPSC ring handoff", q, 4, 1, 1500, seed);
  }
}

TEST(LitmusTest, SpmcRoleRingHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::SpmcRing q(4);
    stress_handoff("SPMC ring handoff", q, 1, 4, 4000, seed);
  }
}

TEST(LitmusTest, SpscLamportHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::SpscRing q(4);
    stress_handoff("SPSC Lamport handoff", q, 1, 1, 5000, seed);
  }
}

// ---- Policy pinning: both order policies run in every build -------------

// Pinned to the audited relaxed policy even under MEMBQ_SEQCST_RINGS, so
// the relaxed orders stay covered in the fallback CI job too.
TEST(LitmusTest, RelaxedPolicyPinnedHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::BasicDistinctQueue<membq::RelaxedOrders> q(2);
    stress_handoff("pinned acq-rel distinct ring", q, 4, 4, 800, seed);
  }
  {
    membq::BasicScqRing<membq::RelaxedOrders> q(2);
    stress_handoff("pinned acq-rel scq ring", q, 4, 4, 800, kSeeds[0]);
  }
}

// Pinned to the seq_cst escape hatch in default builds: the fallback the
// MEMBQ_SEQCST_RINGS option selects can never stop compiling or passing.
TEST(LitmusTest, SeqCstFallbackPinnedHandoff) {
  for (const std::uint64_t seed : kSeeds) {
    membq::BasicDistinctQueue<membq::SeqCstOrders> q(2);
    stress_handoff("pinned seq-cst distinct ring", q, 4, 4, 800, seed);
  }
  {
    membq::BasicDcssQueue<membq::SeqCstOrders> q(2, /*max_threads=*/9);
    stress_handoff("pinned seq-cst dcss ring", q, 4, 4, 800, kSeeds[0]);
  }
}

}  // namespace
