// Deterministic adversary schedules against the lock-free L5 step
// machine (adversary/instrumented_optimal.hpp): park a helper or an
// owner at a poised step, rearrange the world underneath it, grant the
// stale step, and judge the recorded history with the Wing–Gong checker.
//
// The headline schedule is the stale vacate: a dequeue helper parked one
// step before its value→⊥ CAS while the operation completes without it,
// the ring wraps, and the *same value* lands in the same cell. The
// guarded policy (the real queue's DCSS head-condition) refuses the
// revived step; the unguarded control fires, erases the new element, and
// strands every later dequeuer — the Theorem 3.12 staleness weapon
// re-aimed at the helping protocol, and the reason the lock-free L5
// spends a DCSS on its vacate.
//
// The record-recycling schedule parks a helper across a re-announcement
// of the record it helps: its bind CAS must miss by sequence, and with
// one sentinel for every sequence (the control) it corrupts the next
// operation in the record. The stale hand-off schedule parks a helper at
// the CAS that moves `cur_` from a decided record to the next one: it must
// miss once `cur_` has moved on. Two schedules pin findOp's cyclic turn:
// it installs the first pending slot after the last installed one, and a
// parked announcement is installed within mark installations however
// busy the other slots are.
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/instrumented_optimal.hpp"
#include "adversary/linearizability.hpp"
#include "adversary/scheduled_execution.hpp"

namespace {

using membq::adversary::check_bounded_queue;
using membq::adversary::GuardedOptimal;
using membq::adversary::OpKind;
using membq::adversary::opt_view;
using membq::adversary::ScheduledExecution;
using membq::adversary::SharedSentinelOptimal;
using membq::adversary::UnguardedOptimal;

template <class Q>
using Phase = typename Q::Phase;

// Step `op` until `pred()` holds (the op is then *poised at* — has not
// yet executed — the step pred looks for).
template <class Op, class Pred>
void step_until(ScheduledExecution& exec, Op& op, Pred pred) {
  for (int i = 0; i < 100000; ++i) {
    if (pred()) return;
    ASSERT_FALSE(op.complete()) << "op completed before reaching the park";
    exec.step(op);
  }
  FAIL() << "park predicate never held";
}

// ---- the stale vacate schedule -------------------------------------------
//
//   E1 = enq(7)          runs solo: cell0 = 7.
//   D1 = deq (victim)    stepped until poised at its vacate: the element
//                        7 is bound as its result, head still 0.
//   H  = deq (helper)    runs solo: finds D1's record installed and
//                        helps it to completion — vacates, advances head,
//                        marks it done — then runs its own dequeue, which
//                        finds the queue empty and fails.
//   E2 = enq(7)          runs solo: the ring has wrapped, cell0 = 7 again
//                        — the same value, one round later.
//   grant D1's vacate    the poised CAS sees cell0 == 7 == its expected.
//
// Guarded: head (1) no longer equals D1's bound index (0) — the step is
// dead, E2's element survives, and a final dequeue drains it. The whole
// history linearizes.
// Unguarded: the stale CAS fires, writes a round-1 ⊥ over E2's element
// (the proper vacate of that index would write a round-2 ⊥), and the
// queue is corrupted: counters promise one element, the cell shows a
// bottom no round will ever expect, and a fresh dequeuer spins forever
// between readElem and its result bind.

template <class Q>
void run_stale_vacate_schedule(Q& q, ScheduledExecution& exec,
                               typename Q::Op& d1) {
  typename Q::Op e1(q, /*slot=*/0, OpKind::kEnqueue, 7);
  exec.run(0, e1);
  ASSERT_TRUE(e1.ok());

  exec.invoke(1, d1);
  step_until(exec, d1, [&] { return d1.phase() == Phase<Q>::kVacate; });

  typename Q::Op h(q, /*slot=*/2, OpKind::kDequeue);
  exec.run(2, h);
  EXPECT_FALSE(h.ok()) << "the helper completed D1, then found empty";

  typename Q::Op e2(q, /*slot=*/0, OpKind::kEnqueue, 7);
  exec.run(0, e2);
  ASSERT_TRUE(e2.ok());
  ASSERT_EQ(q.cell(0), 7u) << "the wrap re-armed the cell with value 7";

  // Grant the poised, stale vacate.
  exec.step(d1);
  ASSERT_EQ(d1.vacate_attempts(), 1u);
}

TEST(AdversaryOptimalTest, GuardedVacateRefusesOneRoundOfStaleness) {
  GuardedOptimal q(/*capacity=*/1, /*slots=*/3);
  ScheduledExecution exec;
  GuardedOptimal::Op d1(q, /*slot=*/1, OpKind::kDequeue);
  run_stale_vacate_schedule(q, exec, d1);

  EXPECT_FALSE(d1.first_vacate_fired())
      << "the head-guard must kill a vacate granted one round late";
  EXPECT_EQ(q.cell(0), 7u) << "E2's element must survive";

  // The victim completes (its operation was finished by the helper long
  // ago) and a final dequeue drains E2's element.
  step_until(exec, d1, [&] { return d1.complete(); });
  EXPECT_TRUE(d1.ok());
  EXPECT_EQ(d1.value(), 7u);

  GuardedOptimal::Op d2(q, /*slot=*/2, OpKind::kDequeue);
  exec.run(2, d2);
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(d2.value(), 7u);

  const auto res = check_bounded_queue(exec.history(), 1);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

TEST(AdversaryOptimalTest, UnguardedVacateLosesTheElement) {
  UnguardedOptimal q(/*capacity=*/1, /*slots=*/3);
  ScheduledExecution exec;
  UnguardedOptimal::Op d1(q, /*slot=*/1, OpKind::kDequeue);
  run_stale_vacate_schedule(q, exec, d1);

  EXPECT_TRUE(d1.first_vacate_fired())
      << "without the head-guard the stale vacate revives";
  // The cell now holds a round-1 bottom; the proper vacate of this index
  // would write round 2. No enqueue round will ever expect it again.
  EXPECT_EQ(q.cell(0), q.bot_for(1));
  EXPECT_EQ(q.tail() - q.head(), 1u)
      << "the counters still promise one element";

  step_until(exec, d1, [&] { return d1.complete(); });
  EXPECT_TRUE(d1.ok());

  // The promised element is gone: a fresh dequeuer strands between
  // readElem and its result bind, forever.
  UnguardedOptimal::Op d2(q, /*slot=*/2, OpKind::kDequeue);
  exec.invoke(2, d2);
  for (int i = 0; i < 10000 && !d2.complete(); ++i) exec.step(d2);
  EXPECT_FALSE(d2.complete())
      << "a dequeuer made progress against a lost element";
}

// ---- the stale enqueue cell CAS ------------------------------------------
//
// The enqueue-side analogue needs no DCSS: the expected side is a
// round-versioned ⊥, which never recurs. Park the owner one step before
// its cell CAS, let a helper finish the enqueue and a full ring round
// recycle the cell, then grant the poised CAS: the round-0 ⊥ it expects
// is gone for good.

TEST(AdversaryOptimalTest, VersionedBottomKillsStaleEnqueueCas) {
  GuardedOptimal q(/*capacity=*/1, /*slots=*/3);
  ScheduledExecution exec;

  GuardedOptimal::Op e1(q, /*slot=*/1, OpKind::kEnqueue, 5);
  exec.invoke(1, e1);
  step_until(exec, e1, [&] {
    return e1.phase() == Phase<GuardedOptimal>::kCellCas;
  });

  // The helper finds E1's record installed, finishes the write itself,
  // then dequeues the element it just helped in.
  GuardedOptimal::Op h(q, /*slot=*/2, OpKind::kDequeue);
  exec.run(2, h);
  EXPECT_TRUE(h.ok());
  EXPECT_EQ(h.value(), 5u);

  // One full round later the cell holds a *different* element.
  GuardedOptimal::Op e2(q, /*slot=*/2, OpKind::kEnqueue, 6);
  exec.run(2, e2);
  ASSERT_TRUE(e2.ok());
  ASSERT_EQ(q.cell(0), 6u);

  // Grant the poised round-0 CAS: it must miss — the cell's ⊥ era is
  // over and e2's element survives.
  exec.step(e1);
  EXPECT_EQ(e1.cell_cas_attempts(), 1u);
  EXPECT_FALSE(e1.first_cell_cas_fired());
  EXPECT_EQ(q.cell(0), 6u);

  step_until(exec, e1, [&] { return e1.complete(); });
  EXPECT_TRUE(e1.ok()) << "E1 was completed by its helper";

  GuardedOptimal::Op d(q, /*slot=*/1, OpKind::kDequeue);
  exec.run(1, d);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.value(), 6u);

  const auto res = check_bounded_queue(exec.history(), 1);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

// ---- helper-vs-owner on one announcement record --------------------------
//
// The victim is a *helper* this time: parked at the vacate of someone
// else's record while the owner finishes its own operation, the ring
// wraps, and the same value returns. The helper's poised step must be as
// dead as the owner's was in the first schedule — the guard does not
// care which role went stale.

TEST(AdversaryOptimalTest, StaleHelperOfAnotherOpsRecordIsHarmless) {
  GuardedOptimal q(/*capacity=*/1, /*slots=*/4);
  ScheduledExecution exec;

  GuardedOptimal::Op e1(q, /*slot=*/0, OpKind::kEnqueue, 7);
  exec.run(0, e1);

  // The owner announces its dequeue and binds its view...
  GuardedOptimal::Op owner(q, /*slot=*/1, OpKind::kDequeue);
  exec.invoke(1, owner);
  step_until(exec, owner, [&] {
    return owner.phase() == Phase<GuardedOptimal>::kVacate;
  });

  // ...and the victim walks in as a helper of that same record, parked
  // at the very same vacate. (Its own operation is a dequeue: once the
  // owner's record completes, any later findOp helps the victim's record
  // to an empty-fail without touching the ring, keeping the schedule's
  // focus on the poised helper step.)
  GuardedOptimal::Op victim(q, /*slot=*/2, OpKind::kDequeue);
  exec.invoke(2, victim);
  step_until(exec, victim, [&] {
    return victim.phase() == Phase<GuardedOptimal>::kVacate &&
           victim.helping_other();
  });

  // The owner completes its own operation without the helper.
  step_until(exec, owner, [&] { return owner.complete(); });
  EXPECT_TRUE(owner.ok());
  EXPECT_EQ(owner.value(), 7u);

  // Wrap: the same value lands in the cell one round later.
  GuardedOptimal::Op e2(q, /*slot=*/3, OpKind::kEnqueue, 7);
  exec.run(3, e2);
  ASSERT_TRUE(e2.ok());
  ASSERT_EQ(q.cell(0), 7u);

  // Grant the stale helper's vacate: head moved, the step is dead.
  exec.step(victim);
  EXPECT_FALSE(victim.first_vacate_fired());
  EXPECT_EQ(q.cell(0), 7u);

  // The victim's own dequeue was helped to an empty-fail while the queue
  // was drained — legal, its linearization point falls in that window.
  step_until(exec, victim, [&] { return victim.complete(); });
  EXPECT_FALSE(victim.ok());

  GuardedOptimal::Op d2(q, /*slot=*/1, OpKind::kDequeue);
  exec.run(1, d2);
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(d2.value(), 7u);

  const auto res = check_bounded_queue(exec.history(), 1);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

// ---- findOp's cyclic turn --------------------------------------------------
//
// findOp scans cyclically from the slot after the last installation and
// installs the first pending record it meets, whatever the order of the
// announcements. Here slot 1 installed last, and two enqueues are parked
// right after announcing, slot 0's first: the dequeuer in slot 3 must
// install slot 2's, so the element it dequeues is the later
// announcement's. Both enqueues are pending when it runs, so either order
// linearizes.

TEST(AdversaryOptimalTest, FindOpInstallsTheFirstPendingSlotAfterTheLast) {
  GuardedOptimal q(/*capacity=*/2, /*slots=*/4);
  ScheduledExecution exec;

  GuardedOptimal::Op w(q, /*slot=*/1, OpKind::kDequeue);
  exec.run(1, w);
  ASSERT_FALSE(w.ok());
  ASSERT_EQ(q.installed_slots().back(), 1u) << "slot 1 installed last";

  GuardedOptimal::Op e_first(q, /*slot=*/0, OpKind::kEnqueue, 5);
  exec.invoke(0, e_first);
  exec.step(e_first);  // announce
  ASSERT_EQ(e_first.phase(), Phase<GuardedOptimal>::kReadCur);

  GuardedOptimal::Op e_second(q, /*slot=*/2, OpKind::kEnqueue, 6);
  exec.invoke(2, e_second);
  exec.step(e_second);  // announce
  ASSERT_EQ(e_second.phase(), Phase<GuardedOptimal>::kReadCur);

  GuardedOptimal::Op d(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.value(), 6u)
      << "findOp did not start after the last installed slot";

  step_until(exec, e_first, [&] { return e_first.complete(); });
  step_until(exec, e_second, [&] { return e_second.complete(); });
  EXPECT_TRUE(e_first.ok());
  EXPECT_TRUE(e_second.ok());

  GuardedOptimal::Op d2(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d2);
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(d2.value(), 5u);

  const auto res = check_bounded_queue(exec.history(), 2);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

// ---- the installation bound -----------------------------------------------
//
// Slot 2's enqueue P is parked right after announcing while slots 0 and 1
// complete operations back to back: slot 1 enqueues `mark` times in a row,
// then slot 0 dequeues `mark` times, twice over. However busy they are,
// every installation after P's announcement takes a slot in (last, 2]
// cyclically, so P's record is installed within mark installations (the
// mirror's mark is its slot count) and is decided before `cur_` moves on.
// A scan that always starts at slot 0, or one that restarts after slot 0
// whenever `cur_` goes idle (an idle word that forgets the last slot),
// meets slot 1's own next operation first every time: P waits for slot
// 0's turn, or forever.

TEST(AdversaryOptimalTest, PendingRecordIsInstalledWithinMarkInstallations) {
  constexpr std::size_t kMark = 3;
  GuardedOptimal q(/*capacity=*/4, /*slots=*/kMark);
  ScheduledExecution exec;

  GuardedOptimal::Op p(q, /*slot=*/2, OpKind::kEnqueue, 100);
  exec.invoke(2, p);
  exec.step(p);  // announce, then stay parked
  ASSERT_TRUE(q.pending(2));
  const std::size_t base = q.installed_slots().size();

  std::uint64_t next_value = 1;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < kMark; ++i) {
      GuardedOptimal::Op e(q, /*slot=*/1, OpKind::kEnqueue, next_value++);
      exec.run(1, e);
      ASSERT_TRUE(e.ok());
    }
    for (std::size_t i = 0; i < kMark; ++i) {
      GuardedOptimal::Op d(q, /*slot=*/0, OpKind::kDequeue);
      exec.run(0, d);
      ASSERT_TRUE(d.ok());
    }
  }

  // The installations after P's announcement that came before its own.
  const std::vector<std::size_t>& log = q.installed_slots();
  std::size_t waited = 0;
  while (base + waited < log.size() && log[base + waited] != 2) ++waited;
  ASSERT_LT(base + waited, log.size())
      << "P's record was never installed in " << waited << " installations";
  EXPECT_LT(waited, kMark) << "P's record came after " << waited
                           << " other installations";
  EXPECT_FALSE(q.pending(2)) << "P's record installed but not decided";

  step_until(exec, p, [&] { return p.complete(); });
  EXPECT_TRUE(p.ok());
  for (;;) {
    GuardedOptimal::Op d(q, /*slot=*/0, OpKind::kDequeue);
    exec.run(0, d);
    if (!d.ok()) break;
  }
  const auto res = check_bounded_queue(exec.history(), 4);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

// ---- a stale hand-off -----------------------------------------------------
//
// A thread that finds the installed record decided while its own is
// pending hands `cur_` on with one CAS from the decided word to the first
// pending record after its slot. Park a helper poised at that CAS, move the world on
// until the same slot's next incarnation is installed, and grant it: the
// expected word names the decided incarnation's seq, so the CAS misses
// and the new installation stays put.
//
//   O  = enq(5)  slot 0, seq 1: steps until it has installed itself.
//   H  = enq(6)  slot 1, seq 1: finds O installed, waits once, helps O to
//                done, scans on from slot 0, and parks poised at its
//                hand-off CAS from {0, 1} to its own record {1, 1}.
//   O completes  finds its record decided and sets cur_ idle.
//   X  = deq     slot 2, seq 1, runs solo: installs H's record (the first
//                pending after slot 0), writes 6, hands cur_ on to its
//                own record, dequeues 5 and sets cur_ idle.
//   O2 = enq(7)  slot 0, seq 2: steps until it has installed itself, so
//                cur_ names slot 0 again, at seq 2.
//   grant H's hand-off CAS: it expects {0, 1} and must miss.

TEST(AdversaryOptimalTest, StaleHandOffMissesOnceCurMovedOn) {
  GuardedOptimal q(/*capacity=*/4, /*slots=*/3);
  ScheduledExecution exec;

  GuardedOptimal::Op o(q, /*slot=*/0, OpKind::kEnqueue, 5);
  exec.invoke(0, o);
  step_until(exec, o, [&] {
    return o.phase() == Phase<GuardedOptimal>::kLookup;
  });

  GuardedOptimal::Op h(q, /*slot=*/1, OpKind::kEnqueue, 6);
  exec.invoke(1, h);
  step_until(exec, h, [&] {
    return h.phase() == Phase<GuardedOptimal>::kInstall && h.handing_off();
  });
  ASSERT_EQ(q.cell(0), 5u) << "H helped O's enqueue in before the hand-off";

  step_until(exec, o, [&] { return o.complete(); });
  ASSERT_TRUE(o.ok());

  GuardedOptimal::Op x(q, /*slot=*/2, OpKind::kDequeue);
  exec.run(2, x);
  ASSERT_TRUE(x.ok());
  ASSERT_EQ(x.value(), 5u);
  ASSERT_EQ(q.cell(1), 6u) << "X installed and applied H's record";

  GuardedOptimal::Op o2(q, /*slot=*/0, OpKind::kEnqueue, 7);
  exec.invoke(0, o2);
  step_until(exec, o2, [&] {
    return o2.phase() == Phase<GuardedOptimal>::kLookup;
  });
  const std::uint64_t installed = q.cur();
  ASSERT_EQ(installed >> 48, 0u) << "slot 0's next incarnation is installed";

  // Grant the poised hand-off CAS of the decided {0, 1}.
  exec.step(h);
  EXPECT_EQ(q.cur(), installed)
      << "a stale hand-off displaced a pending installation";

  step_until(exec, h, [&] { return h.complete(); });
  EXPECT_TRUE(h.ok()) << "X applied H's enqueue";
  step_until(exec, o2, [&] { return o2.complete(); });
  EXPECT_TRUE(o2.ok());

  for (const std::uint64_t want : {6u, 7u}) {
    GuardedOptimal::Op d(q, /*slot=*/2, OpKind::kDequeue);
    exec.run(2, d);
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(d.value(), want);
  }
  GuardedOptimal::Op d_empty(q, /*slot=*/2, OpKind::kDequeue);
  exec.run(2, d_empty);
  EXPECT_FALSE(d_empty.ok());

  const auto res = check_bounded_queue(exec.history(), 4);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

// ---- a stale bind across a re-announcement -------------------------------
//
// Records are recycled: the owner re-announces its slot's record for its
// next operation, so a helper of incarnation s can be parked across the
// start of s' in the same record.
//
//   E0 = enq(10)          runs solo: cell0 = 10, tail = 1.
//   O  = deq (seq s)      steps until it has installed itself.
//   H  = deq (helper)     steps until poised at the bind CAS of s's view,
//                         having read tail 1 and head 0: the dequeue's
//                         view (start 0, k 1).
//   O completes s         binds that view, dequeues 10, head = 1.
//   E1 = enq(20)          runs solo: its findOp first helps H's own
//                         dequeue to an empty-fail, then writes cell1 =
//                         20 and moves tail to 2.
//   O' = enq(30)          O's slot re-announces its record as s'.
//   grant H's bind CAS
//
// Sequence-named sentinels: the CAS expects unbound(s), the record holds
// unbound(s'): it misses, H drops s on its seq check, O' binds the live
// view (start 2, k 1) and writes 30 into cell0, and a drain returns 20,
// 30. The history linearizes.
// One shared sentinel (the control): the CAS lands and binds the
// dequeue's stale view (start 0, k 1) into the enqueue s'. O' targets
// index 0, finds cell0 holding round 1's ⊥ (O's vacate) instead of round
// 0's, concludes a helper's write landed, and reports success without
// ever writing 30: the drain returns 20 and then empty after a completed
// enq(30).

template <class Q>
void run_stale_bind_schedule(Q& q, ScheduledExecution& exec,
                             typename Q::Op& h) {
  typename Q::Op e0(q, /*slot=*/2, OpKind::kEnqueue, 10);
  exec.run(2, e0);
  ASSERT_TRUE(e0.ok());

  typename Q::Op o(q, /*slot=*/0, OpKind::kDequeue);
  exec.invoke(0, o);
  step_until(exec, o, [&] { return o.phase() == Phase<Q>::kLookup; });

  exec.invoke(1, h);
  step_until(exec, h, [&] {
    return h.phase() == Phase<Q>::kBindView && h.helping_other();
  });
  ASSERT_EQ(q.tail(), 1u) << "H read tail 1";
  ASSERT_EQ(q.head(), 0u) << "H read head 0";

  step_until(exec, o, [&] { return o.complete(); });
  ASSERT_TRUE(o.ok());
  ASSERT_EQ(o.value(), 10u);

  typename Q::Op e1(q, /*slot=*/2, OpKind::kEnqueue, 20);
  exec.run(2, e1);
  ASSERT_TRUE(e1.ok());
  ASSERT_EQ(q.tail(), 2u) << "another enqueue moved tail to 2";

  typename Q::Op o2(q, /*slot=*/0, OpKind::kEnqueue, 30);
  exec.invoke(0, o2);
  exec.step(o2);  // announce s' in the record H is parked on
  ASSERT_EQ(o2.phase(), Phase<Q>::kReadCur);

  exec.step(h);  // grant the parked bind CAS of s
  ASSERT_EQ(h.bind_view_attempts(), 1u);

  step_until(exec, h, [&] { return h.complete(); });
  EXPECT_FALSE(h.ok()) << "E1's findOp helped H's dequeue to empty";
  step_until(exec, o2, [&] { return o2.complete(); });
  EXPECT_TRUE(o2.ok());
}

TEST(AdversaryOptimalTest, SequenceSentinelKillsStaleBindAcrossRecycling) {
  GuardedOptimal q(/*capacity=*/2, /*slots=*/4);
  ScheduledExecution exec;
  GuardedOptimal::Op h(q, /*slot=*/1, OpKind::kDequeue);
  run_stale_bind_schedule(q, exec, h);

  EXPECT_FALSE(h.first_bind_view_fired())
      << "the bind CAS of s must miss once the record is s'";
  EXPECT_EQ(q.bound_view(0), opt_view(2, 1)) << "s' bound the live view";
  EXPECT_EQ(q.cell(0), 30u) << "O' wrote its value";

  GuardedOptimal::Op d1(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d1);
  EXPECT_TRUE(d1.ok());
  EXPECT_EQ(d1.value(), 20u);
  GuardedOptimal::Op d2(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d2);
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(d2.value(), 30u);
  GuardedOptimal::Op d3(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d3);
  EXPECT_FALSE(d3.ok());

  const auto res = check_bounded_queue(exec.history(), 2);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_TRUE(res.linearizable);
}

TEST(AdversaryOptimalTest, SharedSentinelLetsStaleBindLoseAValue) {
  SharedSentinelOptimal q(/*capacity=*/2, /*slots=*/4);
  ScheduledExecution exec;
  SharedSentinelOptimal::Op h(q, /*slot=*/1, OpKind::kDequeue);
  run_stale_bind_schedule(q, exec, h);

  EXPECT_TRUE(h.first_bind_view_fired())
      << "with one sentinel for every seq the stale bind lands";
  EXPECT_EQ(q.bound_view(0), opt_view(0, 1))
      << "s' bound the dequeue's stale view";
  EXPECT_EQ(q.tail(), 2u) << "O' never moved tail: it wrote nothing";

  SharedSentinelOptimal::Op d1(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d1);
  EXPECT_TRUE(d1.ok());
  EXPECT_EQ(d1.value(), 20u);
  SharedSentinelOptimal::Op d2(q, /*slot=*/3, OpKind::kDequeue);
  exec.run(3, d2);
  EXPECT_FALSE(d2.ok()) << "enq(30) completed, yet the queue is empty";

  const auto res = check_bounded_queue(exec.history(), 2);
  ASSERT_FALSE(res.history_too_large);
  EXPECT_FALSE(res.linearizable);
}

}  // namespace
