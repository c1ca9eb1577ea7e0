// L5 (lock-free) — the paper's announcement-array protocol, realized
// without the combiner latch: readElem/findOp helping instead of a serial
// combining loop. Same Θ(T) memory class, same Θ(T) operation cost, but
// every path is lock-free and a stalled thread can never park the queue.
//
// Structure:
//   * `cells_` is the bare C-word ring. An empty cell holds a round-
//     versioned bottom ⊥_r (bit 62 set, r = index/C in the low bits), the
//     L2 trick: an expected-⊥ CAS can never fire a round late, because a
//     given ⊥_r appears in a given cell exactly once, ever.
//   * `recs_` is the Θ(T) announcement array: one 64-byte record per
//     handle slot, owned by the slot for the queue's lifetime. Nothing is
//     allocated per operation and nothing is retired, so the queue needs
//     no reclamation domain and has no backlog outside its Θ(T) words.
//   * `cur_` names the operation being applied as a packed {slot, seq}
//     word (the DCSS-marker idiom).
//
// Record lifecycle. A record's `state` word is seq<<2 | status, where seq
// is the operation's announcement ticket (global, strictly increasing, so
// a record's seq never repeats). To announce ticket s the owner stores
// s|writing, issues a release fence, writes the operation word (kind and
// argument) and resets `bt`, `bh` and `res` to the sentinel unbound(s) =
// bit 63 | s, then publishes s|pending with a store. This is the seqlock
// of `DcssDomain`'s descriptors: a helper that learned s from `cur_`
// reads the operation word, then re-reads `state` behind an acquire fence
// and drops the operation unless the seq is still s. The record is
// decided by one CAS s|pending → s|done (or s|failed); the owner reads
// the outcome and only then may announce its next ticket in the record.
//
// Why a stale helper's CAS misses by sequence. Every one-shot field CAS
// of incarnation s expects a word that names s: the view binds and the
// result bind expect unbound(s), the decision expects s|pending. Once the
// owner re-announces as s' > s, each field holds unbound(s') or a value
// bound for s', never unbound(s) again, so a helper that read a field of
// s, stalled through any number of incarnations and is then granted its
// CAS, misses. (With one sentinel shared by every seq, a helper parked
// between its `tail_` read and its bind CAS would bind s' to a stale tail
// — tests/test_adversary_optimal.cpp replays that schedule.) A bound
// value names no seq, so helpers re-read `state` after binding and drop
// the operation if the record moved on.
//
// findOp: when `cur_` is empty, scan all T records for the pending one
// with the smallest ticket and install it — the Θ(T) scan that is the
// paper's time/memory trade-off (bench_optimal_scaling measures it).
// Helping the *oldest* op first means an announced operation completes
// after at most T installations: the protocol is not just lock-free but
// starvation-free as long as any thread takes steps.
//
// Installer first. A thread that finds `cur_` empty scans and installs at
// once, and the thread whose CAS installed `cur_` applies that operation
// at once. A thread that finds an installation in flight polls its own
// record for kHelpPatience pauses and helps only if its operation is
// still pending when the bound expires (Kogan & Petrank's fast path/slow
// path, the "patience" of Yang & Mellor-Crummey's queue). The wait is
// bounded, so a stalled installer delays the others by kHelpPatience
// pauses and is then helped exactly as before: lock-freedom holds. What
// gets installed is unchanged (always the oldest pending record), so the
// T-installation bound holds too; the rule only decides who applies an
// installed operation, and stops T threads from applying it at once.
//
// readElem: helpers of an installed record first bind its view (tail,
// head) with one-shot CASes, so every helper — including one that stalled
// and woke up rounds later — computes the same full/empty verdict and
// targets the same cell. A dequeue binds the element it read into the
// record (one-shot CAS from the sentinel) before anything mutates the
// cell; a stale read can never publish, because the cell is provably
// stable until the result is bound.
//
// Exactly-once application under stale helpers:
//   * enqueue cell write: CAS ⊥_r → v. Versioned bottoms never recur, so
//     a helper that slept through any number of rounds misses cleanly.
//   * dequeue vacate: the expected side is a *value*, and values may
//     repeat — the one transition a version cannot protect (this is
//     exactly the staleness Theorem 3.12 weaponizes). The vacate is
//     therefore a DCSS whose second comparand is the head counter: once
//     head moves past the bound index, a poised stale vacate is dead, the
//     same shield the L4 queue uses for every slot write.
//   * counter advances are CAS(bound → bound+1) on monotonic counters;
//     record transitions are the sequence-named CASes above.
//
// Cost of the shield: the DCSS descriptor pool is Θ(T), which the design
// already pays for the announcement array — the memory class is unchanged.
// Values must keep bits 62 (⊥ flag) and 63 (DCSS marker) clear, the
// domain-wide contract of every DCSS-managed word in membq.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/topo_alloc.hpp"
#include "sync/backoff.hpp"
#include "sync/dcss.hpp"
#include "telemetry/counters.hpp"

namespace membq {

class LockFreeOptimalQueue {
 public:
  static constexpr const char* kName = "optimal(L5,lf)";
  // Empty-cell encoding: bit 62 flags a bottom, the low bits carry the
  // round (index / capacity). Bit 63 stays reserved for DCSS markers.
  static constexpr std::uint64_t kBotFlag = std::uint64_t{1} << 62;
  // Pauses a thread that finds an installation in flight polls its own
  // record before it helps (CHANGES.md has the ablation of this bound).
  static constexpr std::uint32_t kHelpPatience = 256;

  LockFreeOptimalQueue(
      std::size_t capacity, std::size_t max_threads,
      const topo::MemPolicySpec& pol = topo::default_mem_policy())
      : cap_(capacity),
        max_threads_(max_threads == 0 ? 1 : max_threads),
        cells_(capacity, pol),
        recs_(max_threads_, pol),
        slot_used_(new std::atomic<bool>[max_threads_]),
        dcss_(max_threads_) {
    assert(capacity > 0);
    for (std::size_t i = 0; i < cap_; ++i) {
      cells_[i].store(kBotFlag, std::memory_order_relaxed);  // ⊥ round 0
    }
    for (std::size_t i = 0; i < max_threads_; ++i) {
      slot_used_[i].store(false, std::memory_order_relaxed);
    }
  }

  LockFreeOptimalQueue(const LockFreeOptimalQueue&) = delete;
  LockFreeOptimalQueue& operator=(const LockFreeOptimalQueue&) = delete;

  std::size_t capacity() const noexcept { return cap_; }
  std::size_t max_threads() const noexcept { return max_threads_; }

  // Where the element array actually landed (policy, hugepage, node).
  topo::Placement placement() const noexcept { return cells_.placement(); }

  class Handle {
   public:
    // The DCSS handle is acquired before the announcement slot, so a
    // pool-exhausted throw unwinds without leaking a slot.
    explicit Handle(LockFreeOptimalQueue& q)
        : q_(q), th_(q.dcss_), slot_(q.acquire_slot()) {}

    ~Handle() { q_.release_slot(slot_); }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool try_enqueue(std::uint64_t v) {
      assert(v < kBotFlag && "bits 62/63 are reserved for ⊥ and markers");
      std::uint64_t out;
      return q_.run_op(*this, v, out);
    }

    bool try_dequeue(std::uint64_t& out) {
      return q_.run_op(*this, kDequeueOp, out);
    }

   private:
    friend class LockFreeOptimalQueue;

    LockFreeOptimalQueue& q_;
    DcssDomain::ThreadHandle th_;
    std::size_t slot_;
  };

 private:
  friend class Handle;

  // Record status, the low two bits of `state`.
  static constexpr std::uint64_t kWriting = 0;
  static constexpr std::uint64_t kPending = 1;
  static constexpr std::uint64_t kDone = 2;
  static constexpr std::uint64_t kFailed = 3;
  // Operation word of a dequeue; an enqueue's is its argument (< 2^62).
  static constexpr std::uint64_t kDequeueOp = std::uint64_t{1} << 63;
  // Sentinels: bit 63 set, the incarnation's seq below. Counter values and
  // elements keep bit 63 clear, so a sentinel is never a bound value.
  static constexpr std::uint64_t kUnboundFlag = std::uint64_t{1} << 63;

  // cur_ encoding, mirroring the DCSS marker layout: slot in the top 16
  // bits, announcement ticket (mod 2^48) below.
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

  // One slot's announcement record, reused by every operation of every
  // handle that holds the slot. Seq 0 decided: never installed.
  struct alignas(64) Rec {
    std::atomic<std::uint64_t> state{kDone};      // seq<<2 | status
    std::atomic<std::uint64_t> op{0};             // argument or kDequeueOp
    std::atomic<std::uint64_t> bt{kUnboundFlag};  // bound tail view
    std::atomic<std::uint64_t> bh{kUnboundFlag};  // bound head view
    std::atomic<std::uint64_t> res{kUnboundFlag}; // dequeue: element read
  };

  static std::uint64_t unbound(std::uint64_t seq) noexcept {
    return kUnboundFlag | seq;
  }

  static std::uint64_t seq_of(std::uint64_t state) noexcept {
    return state >> 2;
  }

  static std::uint64_t pack(std::size_t slot, std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(slot) << 48) | (seq & kSeqMask);
  }

  std::uint64_t bot_for(std::uint64_t index) const noexcept {
    return kBotFlag | (index / cap_);
  }

  static bool is_bot(std::uint64_t w) noexcept {
    return (w & kBotFlag) != 0;
  }

  static void advance(std::atomic<std::uint64_t>& counter,
                      std::uint64_t seen) noexcept {
    std::uint64_t expected = seen;
    counter.compare_exchange_strong(expected, seen + 1,
                                    std::memory_order_acq_rel);
  }

  // Bind a one-shot view field of incarnation `seq` from a live counter;
  // all helpers then read the winning value. Counters are quiescent while
  // a record is installed (only the installed record's helpers move
  // them), so every candidate value is the same — the CAS exists to shut
  // out helpers that stall before it and wake up rounds later. Returns
  // the field's word, which the caller validates against `state`.
  static std::uint64_t bind(std::atomic<std::uint64_t>& field,
                            const std::atomic<std::uint64_t>& counter,
                            std::uint64_t seq) {
    std::uint64_t v = field.load(std::memory_order_acquire);
    if (v == unbound(seq)) {
      const std::uint64_t fresh = counter.load(std::memory_order_seq_cst);
      // Expects the sentinel naming `seq`: after a re-announcement the
      // field holds another seq's sentinel or value and this misses.
      if (field.compare_exchange_strong(v, fresh, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        v = fresh;
      }
    }
    return v;
  }

  bool run_op(Handle& hd, std::uint64_t op, std::uint64_t& out) {
    telemetry::count(op == kDequeueOp ? telemetry::Counter::k_deq_attempt
                                      : telemetry::Counter::k_enq_attempt);
    Rec& rec = recs_[hd.slot_];
    const std::uint64_t seq = ticket_.fetch_add(1, std::memory_order_acq_rel);
    // Seqlock publish: the writing state goes out before any field store
    // (release fence), the pending state after all of them.
    rec.state.store((seq << 2) | kWriting, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    rec.op.store(op, std::memory_order_relaxed);
    rec.bt.store(unbound(seq), std::memory_order_relaxed);
    rec.bh.store(unbound(seq), std::memory_order_relaxed);
    rec.res.store(unbound(seq), std::memory_order_relaxed);
    const std::uint64_t pending = (seq << 2) | kPending;
    rec.state.store(pending, std::memory_order_seq_cst);
    while (rec.state.load(std::memory_order_acquire) == pending) {
      help_round(hd, rec, pending);
    }
    // Decided: only this thread re-announces the record, so the outcome
    // stays put until the next call.
    const std::uint64_t st = rec.state.load(std::memory_order_acquire);
    if ((st & 3) == kFailed) return false;
    if (op == kDequeueOp) out = rec.res.load(std::memory_order_acquire);
    return true;
  }

  // One round for a thread whose record `mine` is still `pending`: wait
  // out an installation in flight, then finish the installed operation,
  // or findOp and install one if none is.
  void help_round(Handle& hd, Rec& mine, std::uint64_t pending) {
    std::uint64_t w = cur_.load(std::memory_order_seq_cst);
    if (w != kNone) {
      // Its installer is applying it; give it a bounded time before
      // joining in. Our own record may be decided meanwhile.
      for (std::uint32_t i = 0; i < kHelpPatience; ++i) {
        detail::cpu_relax();
        if (mine.state.load(std::memory_order_acquire) != pending) return;
      }
      w = cur_.load(std::memory_order_seq_cst);
    }
    if (w == kNone) {
      w = find_and_install();
      if (w == kNone) return;  // another thread installed first: wait on it
    }
    finish(hd, w);
  }

  // Scan the T records for the oldest pending one and install it. Returns
  // the installed word, or kNone if nothing is pending or the CAS lost.
  std::uint64_t find_and_install() {
    std::uint64_t best_seq = kNone;
    std::size_t best_slot = 0;
    for (std::size_t i = 0; i < max_threads_; ++i) {
      const std::uint64_t st = recs_[i].state.load(std::memory_order_acquire);
      if ((st & 3) == kPending && seq_of(st) < best_seq) {
        best_seq = seq_of(st);
        best_slot = i;
      }
    }
    if (best_seq == kNone) return kNone;  // our own op completed meanwhile
    // Installing only {slot, seq} bits: if the record completes (or is
    // even re-announced) before this CAS lands, helpers detect the stale
    // installation by the seq/state check and uninstall it.
    std::uint64_t expected = kNone;
    const std::uint64_t w = pack(best_slot, best_seq);
    if (cur_.compare_exchange_strong(expected, w, std::memory_order_acq_rel)) {
      return w;
    }
    telemetry::count(telemetry::Counter::k_cas_fail);
    return kNone;
  }

  // Apply the installed operation `w` if it is still pending, then clear
  // `cur_` for the next findOp.
  void finish(Handle& hd, std::uint64_t w) {
    const std::size_t slot = static_cast<std::size_t>(w >> 48);
    Rec& rec = recs_[slot];
    const std::uint64_t st = rec.state.load(std::memory_order_acquire);
    if ((seq_of(st) & kSeqMask) == (w & kSeqMask) && (st & 3) == kPending) {
      // Applying another thread's announced op is the findOp cost the
      // telemetry attributes; finishing one's own record is not a help.
      if (slot != hd.slot_) {
        telemetry::count(telemetry::Counter::k_findop_help);
      }
      apply(hd, rec, st);
      // Never uninstall a record that is still pending: an installed
      // record stays installed until decided, which is what keeps the
      // head/tail counters quiescent for the view-binding CASes.
      if (rec.state.load(std::memory_order_acquire) == st) return;
    }
    // The installed record is decided (or re-announced since); the seq in
    // the word makes this CAS specific to that one operation.
    std::uint64_t expected = w;
    cur_.compare_exchange_strong(expected, kNone, std::memory_order_acq_rel);
  }

  // Apply incarnation `pending` (s|pending) of an installed record to the
  // ring. Idempotent under any number of concurrent or stale helpers;
  // returns with the incarnation decided, or having found it superseded.
  void apply(Handle& hd, Rec& rec, std::uint64_t pending) {
    const std::uint64_t seq = seq_of(pending);
    // Seqlock read: the operation word is s's only if `state` still names
    // s behind the acquire fence.
    const std::uint64_t op = rec.op.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_of(rec.state.load(std::memory_order_relaxed)) != seq) return;
    const std::uint64_t t = bind(rec.bt, tail_, seq);
    const std::uint64_t h = bind(rec.bh, head_, seq);
    // A bound value names no seq: re-read `state` after the (acquire)
    // field loads. A word bound for a later incarnation, or its sentinel,
    // was written after that incarnation's writing state, which this
    // load then sees.
    if (seq_of(rec.state.load(std::memory_order_acquire)) != seq) return;
    if (op != kDequeueOp) {
      if (t - h >= cap_) {
        decide(rec, pending, kFailed);
        return;
      }
      // Cell write: CAS ⊥_round(t) → arg. The versioned bottom makes the
      // CAS one-shot across all helpers and all rounds; the read helps
      // any DCSS marker (a poised stale vacate) out of the way first.
      std::atomic<std::uint64_t>& cell = cells_[t % cap_];
      const std::uint64_t expected_bot = bot_for(t);
      for (;;) {
        const std::uint64_t x = dcss_.read(&cell);
        if (x != expected_bot) break;  // a helper's write already landed
        std::uint64_t e = expected_bot;
        if (cell.compare_exchange_strong(e, op, std::memory_order_acq_rel)) {
          break;
        }
        telemetry::count(telemetry::Counter::k_cas_fail);
      }
      advance(tail_, t);
      decide(rec, pending, kDone);
      return;
    }
    if (t == h) {
      decide(rec, pending, kFailed);
      return;
    }
    // readElem: the cell is stable until the result is bound (the vacate
    // below CASes *from* the bound result, so it cannot precede the
    // binding), hence the value read here is the element — unless we are
    // a late helper finding the cell already vacated, in which case the
    // result is bound and the one-shot CAS misses cleanly.
    std::atomic<std::uint64_t>& cell = cells_[h % cap_];
    std::uint64_t res = rec.res.load(std::memory_order_acquire);
    if (res == unbound(seq)) {
      const std::uint64_t x = dcss_.read(&cell);
      if (!is_bot(x) &&
          rec.res.compare_exchange_strong(res, x, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        res = x;
      } else {
        res = rec.res.load(std::memory_order_acquire);
      }
    }
    // A sentinel here (ours while the cell read raced with completion, or
    // a later incarnation's) or a value bound for a later incarnation:
    // leave; the caller re-enters or finds the record decided.
    if ((res & kUnboundFlag) != 0 ||
        seq_of(rec.state.load(std::memory_order_acquire)) != seq) {
      return;
    }
    // Vacate: value → ⊥_{round+1}, guarded by the head counter. The
    // expected side is a value and values may repeat, so an unguarded CAS
    // from a stale helper could fire rounds later (Theorem 3.12's weapon);
    // DCSS with head as the second comparand pins the window.
    hd.th_.dcss(&cell, res, bot_for(h + cap_), &head_, h);
    advance(head_, h);
    decide(rec, pending, kDone);
  }

  // The one-shot decision of incarnation `pending` (s|pending → s|status).
  static void decide(Rec& rec, std::uint64_t pending,
                     std::uint64_t status) noexcept {
    std::uint64_t expected = pending;
    rec.state.compare_exchange_strong(
        expected, (pending & ~std::uint64_t{3}) | status,
        std::memory_order_acq_rel);
  }

  std::size_t acquire_slot() {
    for (std::size_t i = 0; i < max_threads_; ++i) {
      bool expected = false;
      if (slot_used_[i].compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
        return i;
      }
    }
    throw std::runtime_error(
        "LockFreeOptimalQueue: more live Handles than max_threads");
  }

  void release_slot(std::size_t slot) noexcept {
    slot_used_[slot].store(false, std::memory_order_release);
  }

  const std::size_t cap_;
  const std::size_t max_threads_;
  topo::TopoArray<std::atomic<std::uint64_t>> cells_;  // the C words
  topo::TopoArray<Rec> recs_;  // Θ(T) announcement records
  std::unique_ptr<std::atomic<bool>[]> slot_used_;
  DcssDomain dcss_;  // Θ(T) descriptor pool guarding the vacate
  alignas(64) std::atomic<std::uint64_t> ticket_{0};
  alignas(64) std::atomic<std::uint64_t> cur_{kNone};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// The benchmark's two spellings of the one class (registry rows
// optimal(L5,lf,ebr) and optimal(L5,lf,hp)), kept until its panel has a
// single lock-free L5 row.
using EbrOptimalQueue = LockFreeOptimalQueue;
using HpOptimalQueue = LockFreeOptimalQueue;

}  // namespace membq
