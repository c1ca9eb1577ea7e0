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
//   * `recs_` is the Θ(T) announcement array: one 128-byte record per
//     handle slot, owned by the slot for the queue's lifetime. Nothing is
//     allocated per operation and nothing is retired, so the queue needs
//     no reclamation domain and has no backlog outside its Θ(T) words.
//   * `cur_` names the operation being applied as the word slot<<48 | seq
//     (the DCSS-marker idiom), the record's seq in a 48-bit field. The
//     slot stays below 2^15, as `DcssDomain` requires, so bit 63 is clear.
//     With nothing installed, `cur_` holds idle(w) = bit 63 | w, where w
//     is the last installed word: it keeps the slot where the next findOp
//     starts (below). A record's bound view packs a counter above a 4-bit
//     count, so `head_` and `tail_` must stay below 2^59: at 10^9 items/s,
//     about 18 years.
//
// Batches. One announcement carries an operation on up to kBulk = 12
// items: the operation word is kind|n, and the record's `val` words, which
// fill most of its two cache lines, hold an enqueue's arguments or a
// dequeue's per-index result binds. Helpers touch only the n words the
// operation names. The first line holds the operation word, the bound
// view `bv` and val[0..6); `state`, which the owner polls while it waits,
// is the record's last word, on the second line. So the owner's polls
// share their line only with the decide CAS and, past six items, a
// dequeue's result binds: the view bind and the first six result binds
// are not slowed by a waiting owner pulling their line back. The whole
// announce → findOp → install → bind → decide chain is paid once per
// announcement, so a bulk call of n items pays it ⌈n/12⌉ times (the
// flat-combining idea of Hendler et al., SPAA'10, in the record's `val`
// words), and a scalar op is a batch of one. The Handle issues a call in
// announcements of at most kBulk and stops at the first short one: an
// announcement is cut only by the bound view (full or empty), never by
// contention, so a short count means full or empty.
//
// Record lifecycle. A record's `state` word is seq<<2 | status, where seq
// counts the record's announcements: the owner announces s+1 once s is
// decided, and a handle that takes the slot continues from the state it
// inherits, so a record's seq never repeats and no operation touches a
// shared counter to get one. Seq 0 is the decided state a record starts
// in. To announce s the owner stores s|writing, issues a release fence,
// writes the operation word, resets the view word `bv` to the sentinel
// unbound(s) = bit 63 | s and writes `val` (the arguments, or unbound(s)
// per item of a dequeue), then publishes s|pending with a store. This is
// the seqlock of `DcssDomain`'s descriptors: a helper that learned s from
// `cur_` reads the operation word and an enqueue's arguments, then
// re-reads `state` behind an acquire fence and drops the operation unless
// the seq is still s. The record is decided by one CAS s|pending →
// s|done (or s|failed); the owner reads the outcome and only then
// announces s+1.
//
// Why a stale helper's CAS misses by sequence. Every one-shot field CAS
// of incarnation s expects a word that names s: the view bind and the
// result binds expect unbound(s), the decision expects s|pending. Once
// the owner re-announces as s' > s, each field holds unbound(s'), an
// argument of s' or a value bound for s', never unbound(s) again, so a
// helper that read a field of s, stalled through any number of
// incarnations and is then granted its CAS, misses. (With one sentinel
// shared by every seq, a helper parked between its counter reads and its
// bind CAS would bind s' to a stale view — tests/test_adversary_optimal.cpp
// replays that schedule.) A bound value names no seq, so helpers re-read
// `state` after every bind and drop the operation if the record moved on.
//
// findOp: scan the records of the handed-out slots cyclically, starting
// after the slot of the last installation, and return the first pending
// one — the round-robin turn of Herlihy's universal construction
// (TOPLAS'91), which needs no shared counter. It is the Θ(T) scan that is
// the paper's time/memory trade-off (bench_optimal_scaling measures it).
// The scan covers [0, mark), where `mark_` is the high-water mark of the
// slot indices ever handed out: a slot raises it before its first
// announcement, so an owner's own scan always covers its record, and a
// queue provisioned for T slots but driven by fewer handles scans only
// the slots they hold. The bound: let record i be pending. Every
// installation after the first one that follows i's announcement comes
// from a scan that read `cur_` after that first one, so it finds i
// pending and takes a slot in (last, i] cyclically, where last is the
// slot installed before it. (A scan begun before i was pending lands only
// as that first installation: its install CAS expects the word the scan
// started from, and no word of `cur_` recurs, since installed words name
// a record's seq and idle words the last installed word.) So each
// installation brings the installed slot closer to i, and an installed
// record stays installed until it is decided: i is decided within mark
// installations, and the protocol is not just lock-free but
// starvation-free as long as any thread takes steps.
//
// Installer first, then hand-off. A thread that finds `cur_` idle scans
// and installs at once, and the thread whose CAS installed `cur_` applies
// that operation at once. A thread that finds an installation in flight
// polls its own record for kHelpPatience pauses and helps only if its
// operation is still pending when the bound expires (Kogan & Petrank's
// fast path/slow path, the "patience" of Yang & Mellor-Crummey's queue;
// sync/backoff.hpp holds the bound, which the ticket rings share).
// The wait is bounded, so a stalled installer delays the others by
// kHelpPatience pauses and is then helped exactly as before: lock-freedom
// holds. A thread that sees the installed record decided while its own is
// still pending does not clear `cur_`: it scans on from the decided
// record's slot and CASes `cur_` from the decided word straight to the
// first pending record, which it then applies as that record's installer.
// It clears `cur_` to idle only once its own record is decided. The
// hand-off is the uninstall and the next findOp install in one CAS, so
// what gets installed is unchanged (always the first pending record after
// the last installed slot) and the mark-installation bound holds; the
// rules only decide who applies an installed operation, and stop T
// threads from applying it at once.
//
// readElem: helpers of an installed record first bind its view, one word
// start<<4 | k (start = the tail for an enqueue, the head for a dequeue;
// k = min(n, room) or min(n, size) from live reads of both counters), with
// one one-shot CAS, so every helper — including one that stalled and woke
// up rounds later — and the owner use the same count and target the same
// cells. A dequeue binds the element it read from cell h+j (h = start)
// into `val[j]` (one-shot CAS from the sentinel) before anything mutates
// that cell; a stale read can never publish, because the cell is provably
// stable until its result is bound.
//
// Exactly-once application under stale helpers:
//   * enqueue cell writes: CAS ⊥_round(t+j) → v_j for j < k. Versioned
//     bottoms never recur, so a helper that slept through any number of
//     rounds misses cleanly.
//   * dequeue vacates: the expected side is a *value*, and values may
//     repeat — the one transition a version cannot protect (this is
//     exactly the staleness Theorem 3.12 weaponizes). Each vacate is
//     therefore a DCSS whose second comparand is the head counter, and
//     one comparand, head_ == h, guards every vacate of the batch: while
//     the record is installed only its own helpers move a counter, and
//     they advance head_ once, h → h+k, after the whole batch is vacated.
//     So head_ == h holds from the bind of the view until the last vacate
//     of the batch and never again, and the advance kills every poised
//     stale vacate of the batch at once — the L4 queue's shield, taken
//     per batch rather than per cell.
//   * counter advances are one CAS(bound → bound+k) on monotonic counters
//     (every helper reads the same k); record transitions are the
//     sequence-named CASes above.
//
// Cost of the shield: the DCSS descriptor pool is Θ(T), which the design
// already pays for the announcement array — the memory class is unchanged.
// Values must keep bits 62 (⊥ flag) and 63 (DCSS marker) clear, the
// domain-wide contract of every DCSS-managed word in membq.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

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
  // Items one announcement carries: the `val` words of a two-line record
  // beside its operation word, its view word, one spare word and `state`.
  static constexpr std::size_t kBulk = 2 * 64 / sizeof(std::uint64_t) - 4;
  static_assert(kBulk < 16, "a batch count fits the view's 4-bit field");

  LockFreeOptimalQueue(std::size_t capacity, std::size_t max_threads)
      : cap_(capacity),
        max_threads_(max_threads == 0 ? 1 : max_threads),
        cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
        recs_(std::make_unique<Rec[]>(max_threads_)),
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

  class Handle {
   public:
    // The DCSS handle is acquired before the announcement slot, so a
    // pool-exhausted throw unwinds without leaking a slot.
    explicit Handle(LockFreeOptimalQueue& q)
        : q_(q), th_(q.dcss_), slot_(q.acquire_slot()) {}

    ~Handle() { q_.release_slot(slot_); }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    // Scalar ops are bulk(n=1): each direction has exactly one body.
    bool try_enqueue(std::uint64_t v) { return try_enqueue_bulk(&v, 1) == 1; }
    bool try_dequeue(std::uint64_t& out) {
      return try_dequeue_bulk(&out, 1) == 1;
    }

    // Announcements of at most kBulk items each; the first short one means
    // full (or empty, below), so the call stops there.
    std::size_t try_enqueue_bulk(const std::uint64_t* vs, std::size_t n) {
      if (n == 0) return 0;
      telemetry::count(telemetry::Counter::k_enq_attempt);
      std::size_t done = 0;
      while (done < n) {
        const std::size_t m = std::min(n - done, kBulk);
        const std::size_t k = q_.run_op(*this, m, vs + done, nullptr);
        done += k;
        if (k < m) break;
      }
      return done;
    }

    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) {
      if (n == 0) return 0;
      telemetry::count(telemetry::Counter::k_deq_attempt);
      std::size_t done = 0;
      while (done < n) {
        const std::size_t m = std::min(n - done, kBulk);
        const std::size_t k = q_.run_op(*this, m, nullptr, out + done);
        done += k;
        if (k < m) break;
      }
      return done;
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
  // Operation word: bit 63 flags a dequeue, the low bits carry n ≤ kBulk.
  static constexpr std::uint64_t kDequeueOp = std::uint64_t{1} << 63;
  // Sentinels: bit 63 set, the incarnation's seq below. Counter values and
  // elements keep bit 63 clear, so a sentinel is never a bound value.
  static constexpr std::uint64_t kUnboundFlag = std::uint64_t{1} << 63;

  // cur_ encoding, mirroring the DCSS marker layout: an installed word is
  // slot<<48 | seq (mod 2^48) with bit 63 clear; idle(w) sets bit 63 on
  // the last installed word w.
  static constexpr std::uint64_t kIdleFlag = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

  // One slot's announcement record, reused by every operation of every
  // handle that holds the slot. Seq 0 decided: never installed.
  struct alignas(64) Rec {
    std::atomic<std::uint64_t> op{0};             // kind | n
    std::atomic<std::uint64_t> bv{kUnboundFlag};  // bound view: start<<4 | k
    // Enqueue: the n arguments. Dequeue: the element read from cell
    // start+j. val[0..6) share the first line with `op` and `bv`.
    std::atomic<std::uint64_t> val[kBulk] = {};
    std::uint64_t spare = 0;  // unused: keeps `state` the last word
    // Last, on the second line: the owner polls it while it waits.
    std::atomic<std::uint64_t> state{kDone};  // seq<<2 | status
  };
  static_assert(sizeof(Rec) == 128, "a record is two cache lines");
  static_assert(offsetof(Rec, op) / 64 ==
                    (offsetof(Rec, val) + 6 * sizeof(std::uint64_t) - 1) / 64,
                "op, bv and val[0..6) share the record's first line");
  static_assert(offsetof(Rec, state) / 64 != offsetof(Rec, op) / 64,
                "the polled state word is off the operation word's line");

  static std::uint64_t unbound(std::uint64_t seq) noexcept {
    return kUnboundFlag | seq;
  }

  // The bound view: the counter the batch starts at above its count k.
  static std::uint64_t view(std::uint64_t start, std::uint64_t k) noexcept {
    assert(start < (std::uint64_t{1} << 59) && "counters stay below 2^59");
    return start << 4 | k;
  }

  static std::uint64_t seq_of(std::uint64_t state) noexcept {
    return state >> 2;
  }

  static std::uint64_t pack(std::size_t slot, std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(slot) << 48) | (seq & kSeqMask);
  }

  static bool is_idle(std::uint64_t w) noexcept {
    return (w & kIdleFlag) != 0;
  }

  // The slot of an installed word, or of the last installation an idle
  // word names.
  static std::size_t slot_of(std::uint64_t w) noexcept {
    return static_cast<std::size_t>((w & ~kIdleFlag) >> 48);
  }

  std::uint64_t bot_for(std::uint64_t index) const noexcept {
    return kBotFlag | (index / cap_);
  }

  static bool is_bot(std::uint64_t w) noexcept {
    return (w & kBotFlag) != 0;
  }

  // Move a counter from its bound value over the batch. One CAS suffices:
  // only the installed record's helpers move counters, and all of them
  // move it bound → bound+k.
  static void advance(std::atomic<std::uint64_t>& counter, std::uint64_t seen,
                      std::uint64_t k) noexcept {
    std::uint64_t expected = seen;
    counter.compare_exchange_strong(expected, seen + k,
                                    std::memory_order_acq_rel);
  }

  // Bind a one-shot field of incarnation `seq` (the view, or a dequeue's
  // result) to `fresh`; all helpers then read the winning value. For the
  // view, counters are quiescent while a record is installed (only the
  // installed record's helpers move them, after the bind), so every
  // candidate value is the same — the CAS exists to shut out helpers that
  // stall before it and wake up rounds later. Returns the field's word,
  // which the caller validates against `state`.
  static std::uint64_t bind(std::atomic<std::uint64_t>& field,
                            std::uint64_t seq, std::uint64_t fresh) {
    std::uint64_t v = unbound(seq);
    // Expects the sentinel naming `seq`: after a re-announcement the
    // field holds another seq's sentinel or value and this misses.
    if (field.compare_exchange_strong(v, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      v = fresh;
    }
    return v;
  }

  // Announce and run one operation on m ≤ kBulk items (`in` for an
  // enqueue, `out` for a dequeue); returns the count k it was decided
  // with.
  std::size_t run_op(Handle& hd, std::size_t m, const std::uint64_t* in,
                     std::uint64_t* out) {
    Rec& rec = recs_[hd.slot_];
    // Only the slot's holder announces in the record, and it saw its last
    // announcement decided (or acquired the slot from the holder that
    // did), so this load reads that decided state.
    const std::uint64_t seq =
        seq_of(rec.state.load(std::memory_order_relaxed)) + 1;
    // Seqlock publish: the writing state goes out before any field store
    // (release fence), the pending state after all of them.
    rec.state.store((seq << 2) | kWriting, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    rec.op.store((in == nullptr ? kDequeueOp : 0) | m,
                 std::memory_order_relaxed);
    rec.bv.store(unbound(seq), std::memory_order_relaxed);
    for (std::size_t j = 0; j < m; ++j) {
      assert((in == nullptr || in[j] < kBotFlag) &&
             "bits 62/63 are reserved for ⊥ and markers");
      rec.val[j].store(in == nullptr ? unbound(seq) : in[j],
                       std::memory_order_relaxed);
    }
    const std::uint64_t pending = (seq << 2) | kPending;
    rec.state.store(pending, std::memory_order_seq_cst);
    while (rec.state.load(std::memory_order_acquire) == pending) {
      help_round(hd, rec, pending);
    }
    // Decided: only this thread re-announces the record, so the bound view
    // and the result binds stay put until the next call. Every decision is
    // taken from the bound view, a failed one from k = 0.
    const std::uint64_t k = rec.bv.load(std::memory_order_acquire) & 0xF;
    if (out != nullptr) {
      for (std::size_t j = 0; j < k; ++j) {
        out[j] = rec.val[j].load(std::memory_order_acquire);
      }
    }
    return static_cast<std::size_t>(k);
  }

  // One round for a thread whose record `mine` is still `pending`: wait
  // out an installation in flight, then finish the installed operation,
  // or findOp and install one if none is; then keep handing `cur_` on to
  // the next pending record, and applying it, while ours is pending.
  void help_round(Handle& hd, Rec& mine, std::uint64_t pending) {
    std::uint64_t w = cur_.load(std::memory_order_seq_cst);
    if (!is_idle(w)) {
      // Its installer is applying it; give it a bounded time before
      // joining in. Our own record may be decided meanwhile.
      for (std::uint32_t i = 0; i < kHelpPatience; ++i) {
        detail::cpu_relax();
        if (mine.state.load(std::memory_order_acquire) != pending) return;
      }
      w = cur_.load(std::memory_order_seq_cst);
    }
    for (;;) {
      // Never move `cur_` off a record that is still pending: an installed
      // record stays installed until decided, which is what keeps the
      // head/tail counters quiescent for the view bind.
      if (!is_idle(w) && !settle(hd, w)) return;
      // `cur_` is idle or names a decided record: install the next pending
      // one while ours is pending, set it idle once ours is decided.
      const std::uint64_t next =
          mine.state.load(std::memory_order_acquire) == pending
              ? find_op(w)
              : w | kIdleFlag;
      if (next == w) return;  // nothing installed and nothing pending
      // No word of `cur_` recurs, so this CAS is specific to the one `w`
      // read: a helper that lost the race to move it on misses.
      std::uint64_t expected = w;
      if (!cur_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel)) {
        if (!is_idle(next)) telemetry::count(telemetry::Counter::k_cas_fail);
        return;  // another thread moved `cur_` on: wait on its installer
      }
      if (is_idle(next)) return;
      w = next;  // we installed it, so we apply it at once
    }
  }

  // findOp: scan the handed-out slots cyclically from the one after the
  // last installed slot, which `w` names, for the first pending record.
  // Returns its {slot, seq} word, or idle(w) if none is pending.
  std::uint64_t find_op(std::uint64_t w) const {
    const std::size_t mark = mark_.load(std::memory_order_seq_cst);
    std::size_t i = slot_of(w);
    for (std::size_t n = 0; n < mark; ++n) {
      if (++i >= mark) i = 0;
      const std::uint64_t st = recs_[i].state.load(std::memory_order_acquire);
      if ((st & 3) == kPending) return pack(i, seq_of(st));
    }
    return w | kIdleFlag;
  }

  // Apply the installed operation `w` if it is still pending. Returns
  // false while it stays pending, true once it is decided (or its record
  // was re-announced since).
  bool settle(Handle& hd, std::uint64_t w) {
    const std::size_t slot = slot_of(w);
    Rec& rec = recs_[slot];
    const std::uint64_t st = rec.state.load(std::memory_order_acquire);
    if ((seq_of(st) & kSeqMask) != (w & kSeqMask) || (st & 3) != kPending) {
      return true;
    }
    // Applying another thread's announced op is the findOp cost the
    // telemetry attributes; finishing one's own record is not a help.
    if (slot != hd.slot_) {
      telemetry::count(telemetry::Counter::k_findop_help);
    }
    apply(hd, rec, st);
    return rec.state.load(std::memory_order_acquire) != st;
  }

  // Apply incarnation `pending` (s|pending) of an installed record to the
  // ring. Idempotent under any number of concurrent or stale helpers;
  // returns with the incarnation decided, or having found it superseded.
  void apply(Handle& hd, Rec& rec, std::uint64_t pending) {
    const std::uint64_t seq = seq_of(pending);
    // Seqlock read: the operation word and an enqueue's n arguments are
    // s's only if `state` still names s behind the acquire fence. So the
    // arguments are read before the check, never after it. A torn read
    // may pair the word of another incarnation with s's, so n is clamped
    // before it indexes `val`.
    const std::uint64_t op = rec.op.load(std::memory_order_relaxed);
    const bool deq = (op & kDequeueOp) != 0;
    std::uint64_t args[kBulk] = {};
    if (!deq) {
      const std::uint64_t n = std::min<std::uint64_t>(op, kBulk);  // op = n
      for (std::size_t j = 0; j < n; ++j) {
        args[j] = rec.val[j].load(std::memory_order_relaxed);
      }
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_of(rec.state.load(std::memory_order_relaxed)) != seq) return;
    std::uint64_t v = rec.bv.load(std::memory_order_acquire);
    if (v == unbound(seq)) {
      const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
      const std::uint64_t h = head_.load(std::memory_order_seq_cst);
      const std::uint64_t n = op & ~kDequeueOp;  // s's: checked above
      v = bind(rec.bv, seq,
               deq ? view(h, std::min(n, t - h))
                   : view(t, std::min(n, cap_ - (t - h))));
    }
    // A bound value names no seq: re-read `state` after the (acquire)
    // field load. A word bound for a later incarnation, or its sentinel,
    // was written after that incarnation's writing state, which this
    // load then sees.
    if (seq_of(rec.state.load(std::memory_order_acquire)) != seq) return;
    const std::uint64_t start = v >> 4;
    const std::uint64_t k = v & 0xF;
    if (k == 0) {
      decide(rec, pending, kFailed);  // full or empty at the bound view
      return;
    }
    if (!deq) {
      // Cell writes: CAS ⊥_round(start+j) → v_j. The versioned bottom makes
      // each CAS one-shot across all helpers and all rounds; the read
      // helps any DCSS marker (a poised stale vacate) out of the way first.
      for (std::uint64_t j = 0; j < k; ++j) {
        std::atomic<std::uint64_t>& cell = cells_[(start + j) % cap_];
        const std::uint64_t expected_bot = bot_for(start + j);
        for (;;) {
          const std::uint64_t x = dcss_.read(&cell);
          if (x != expected_bot) break;  // a helper's write already landed
          std::uint64_t e = expected_bot;
          if (cell.compare_exchange_strong(e, args[j],
                                           std::memory_order_acq_rel)) {
            break;
          }
          telemetry::count(telemetry::Counter::k_cas_fail);
        }
      }
      advance(tail_, start, k);
      decide(rec, pending, kDone);
      return;
    }
    for (std::uint64_t j = 0; j < k; ++j) {
      // readElem: cell start+j is stable until val[j] is bound (its vacate
      // CASes *from* the bound result, so it cannot precede the binding),
      // hence the value read here is the element — unless we are a late
      // helper finding the cell already vacated, in which case val[j] is
      // bound and the one-shot CAS misses cleanly.
      std::atomic<std::uint64_t>& cell = cells_[(start + j) % cap_];
      std::uint64_t res = rec.val[j].load(std::memory_order_acquire);
      if (res == unbound(seq)) {
        const std::uint64_t x = dcss_.read(&cell);
        res = is_bot(x) ? rec.val[j].load(std::memory_order_acquire)
                        : bind(rec.val[j], seq, x);
      }
      // A sentinel here (ours while the cell read raced with completion,
      // or a later incarnation's) or a word of a later incarnation:
      // leave; the caller re-enters or finds the record decided.
      if ((res & kUnboundFlag) != 0 ||
          seq_of(rec.state.load(std::memory_order_acquire)) != seq) {
        return;
      }
      // Vacate: value → ⊥_{round+1}, guarded by head_ == start for every
      // j — head_ stays there until the batch's advance (see the header).
      hd.th_.dcss(&cell, res, bot_for(start + j + cap_), &head_, start);
    }
    advance(head_, start, k);
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
        // Raise the findOp bound over slot i before its first announcement:
        // a seq_cst RMW, sequenced before every seq_cst pending store of
        // the slot, so a scan that loads the mark after such a store
        // covers the slot, and the owner's own scans always do.
        std::size_t m = mark_.load(std::memory_order_relaxed);
        while (!mark_.compare_exchange_weak(m, std::max(m, i + 1),
                                            std::memory_order_seq_cst)) {
        }
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
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;  // the C words
  std::unique_ptr<Rec[]> recs_;  // Θ(T) announcement records
  std::unique_ptr<std::atomic<bool>[]> slot_used_;
  // One past the highest slot index ever handed out; never lowered. Read
  // by every findOp, written only when a handle takes a slot.
  std::atomic<std::size_t> mark_{0};
  DcssDomain dcss_;  // Θ(T) descriptor pool guarding the vacate
  // Starts as idle({0, 0}): no record installs seq 0, so it never recurs.
  alignas(64) std::atomic<std::uint64_t> cur_{kIdleFlag};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

// The benchmark's two spellings of the one class (registry rows
// optimal(L5,lf,ebr) and optimal(L5,lf,hp)), kept until its panel has a
// single lock-free L5 row.
using EbrOptimalQueue = LockFreeOptimalQueue;
using HpOptimalQueue = LockFreeOptimalQueue;

}  // namespace membq
