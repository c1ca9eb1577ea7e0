// Step-machine mirror of the lock-free L5 announcement protocol
// (core/lockfree_optimal_queue.hpp), built for attackability: shared
// state is plain memory mutated only through SteppedOp state machines, so
// ScheduledExecution controls every interleaving — announce, wait, findOp
// scan, install, view binding, readElem, cell CAS, vacate, counter
// advance — and can park a helper or an owner at any of them.
//
// Like the real queue, each announcement slot owns one record for life:
// an operation re-announces its slot's record under the record's next
// seq (the last one plus one; there is no shared ticket), and every
// one-shot field (the view, the result) starts at a sentinel. The
// view is the real queue's one word, start<<4 | k (start = the tail for
// an enqueue, the head for a dequeue; k = min(1, room or size)), read
// from both counters in one step and bound by one CAS. (The real queue
// reads the counters with two loads; they can straddle a counter move
// only once the view is bound, and then the bind CAS misses.) The mirror
// has two policy axes, each with an attackable control.
//
// The vacate, the one transition whose expected side is a *value*
// (values may repeat — the expected-side ABA a round-versioned ⊥ cannot
// guard, Theorem 3.12's weapon aimed at helpers instead of ring rounds):
//
//   GuardedVacate     the real queue's DCSS: value → ⊥ only while the
//                     head counter still equals the bound index. A poised
//                     stale vacate granted rounds later finds head moved
//                     and dies.
//   UnguardedVacate   plain CAS on the value: the attackable control. A
//                     parked helper's vacate revives once the same value
//                     recurs in the cell, erases the new element, and
//                     leaves a dead-round ⊥ the protocol can never
//                     recognize — the element is lost and every later
//                     dequeuer strands behind it.
//
// The sentinel of the one-shot fields, which decides whether a bind CAS
// of a helper parked across a re-announcement can land:
//
//   SeqSentinels      the real queue's: unbound(s) = bit 63 | s, so the
//                     parked CAS of incarnation s expects a word the
//                     record never holds again once it is s' > s.
//   SharedSentinel    one sentinel for every seq: the attackable control.
//                     The parked CAS binds the stale view it read into
//                     the next incarnation.
//
// The machine follows the real protocol's structure: a packed {slot, seq}
// `cur_` word whose idle form, bit 63 set on the last installed word,
// keeps the last installed slot; the cyclic findOp, which starts after
// that slot and stops at the first pending record; installer-first
// helping (a thread that finds an installation in flight polls its own
// record once and only then helps); the hand-off (a thread that finds the
// installation decided while its own operation is pending scans on from
// the decided record's slot and CASes `cur_` from the decided word
// straight to the first pending record; it sets `cur_` idle only once its
// own operation is decided); one-shot view binding validated against the
// record's seq; versioned bottoms on the enqueue side. Announcing is one
// atomic step here, so the real queue's seqlock writing state has no
// counterpart. The scan covers every slot: the real queue's bound on it,
// the high-water mark of handed-out slots, is not mirrored, so the mark
// here is the slot count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "adversary/scheduled_execution.hpp"

namespace membq::adversary {

// Cell encoding mirrors the real queue: bit 62 flags a bottom, low bits
// carry the round (index / capacity). Bit 63 stays clear (no DCSS
// descriptors here — the guarded vacate models the DCSS as one atomic
// conditional step, which is exactly the atomicity DCSS provides).
constexpr std::uint64_t kOptBotFlag = std::uint64_t{1} << 62;
// Sentinel flag of the one-shot record fields, as in the real queue.
constexpr std::uint64_t kOptUnboundFlag = std::uint64_t{1} << 63;

constexpr bool opt_is_bot(std::uint64_t w) noexcept {
  return (w & kOptBotFlag) != 0;
}

// A bound view, packed as in the real queue: start above a 4-bit count.
constexpr std::uint64_t opt_view(std::uint64_t start,
                                 std::uint64_t k) noexcept {
  return start << 4 | k;
}

struct GuardedVacate {
  // One atomic step: cell value → next-round ⊥, iff head still equals the
  // bound index (the DCSS second comparand).
  static bool vacate(std::uint64_t& cell, std::uint64_t expected,
                     std::uint64_t next_bot, std::uint64_t head_now,
                     std::uint64_t bound_h) noexcept {
    if (head_now != bound_h) return false;
    if (cell != expected) return false;
    cell = next_bot;
    return true;
  }
};

struct UnguardedVacate {
  static bool vacate(std::uint64_t& cell, std::uint64_t expected,
                     std::uint64_t next_bot, std::uint64_t /*head_now*/,
                     std::uint64_t /*bound_h*/) noexcept {
    if (cell != expected) return false;
    cell = next_bot;
    return true;
  }
};

struct SeqSentinels {
  static constexpr std::uint64_t unbound(std::uint64_t seq) noexcept {
    return kOptUnboundFlag | seq;
  }
};

struct SharedSentinel {
  static constexpr std::uint64_t unbound(std::uint64_t /*seq*/) noexcept {
    return kOptUnboundFlag;
  }
};

template <class VacatePolicy, class SentinelPolicy = SeqSentinels>
class InstrumentedOptimal {
 public:
  InstrumentedOptimal(std::size_t capacity, std::size_t slots)
      : cap_(capacity),
        cells_(capacity, kOptBotFlag),  // ⊥ round 0
        recs_(slots) {}

  std::size_t capacity() const noexcept { return cap_; }
  std::uint64_t head() const noexcept { return head_; }
  std::uint64_t tail() const noexcept { return tail_; }
  std::uint64_t cur() const noexcept { return cur_; }
  // The slot of every installation so far, in order: each CAS that put a
  // record's word into `cur_`.
  const std::vector<std::size_t>& installed_slots() const noexcept {
    return installed_slots_;
  }
  bool pending(std::size_t slot) const noexcept {
    return (recs_[slot].state & 3) == kPending;
  }
  std::uint64_t cell(std::size_t i) const noexcept { return cells_[i]; }
  // The view bound in slot `slot`'s record (or its sentinel).
  std::uint64_t bound_view(std::size_t slot) const noexcept {
    return recs_[slot].bv;
  }

  std::uint64_t bot_for(std::uint64_t index) const noexcept {
    return kOptBotFlag | (index / cap_);
  }

  // The phases an operation can be parked at. Phases marked (*) touch
  // shared state when stepped; the rest only read or book-keep.
  enum class Phase {
    kAnnounce,    // (*) re-announce the slot's record under its next seq
    kReadCur,     // read the installed-op word
    kWait,        // an installation is in flight: poll our own record
    kRecheckCur,  // the wait expired: read the installed-op word again
    kScan,        // findOp: examine the next slot, cyclically
    kInstall,     // (*) CAS cur_ from its idle word, or on a hand-off from
                  //     the decided installation, to the first pending op
    kLookup,      // resolve the installed word to a record incarnation
    kReadView,    // read the view field and, if unbound, both counters
    kBindView,    // (*) one-shot bind of the record's view
    kValidate,    // read the bound view, re-check the record's seq
    kCheckFull,   // enqueue: full/space verdict from the bound view
    kCellRead,    // enqueue: read the target cell
    kCellCas,     // (*) enqueue: CAS ⊥_round → value
    kAdvTail,     // (*) advance tail past the bound index
    kCheckEmpty,  // dequeue: empty verdict from the bound view
    kElemRead,    // dequeue: readElem — read the cell at the bound head
    kBindRes,     // (*) dequeue: one-shot bind of the element read
    kVacate,      // (*) dequeue: value → ⊥, per the VacatePolicy
    kAdvHead,     // (*) advance head past the bound index
    kDecide,      // (*) one-shot state transition (done / failed)
    kUninstall,   // (*) leave a decided installation: start the hand-off
                  //     scan while our op is pending, else set cur_ idle
    kCheckSelf,   // has our own record been decided?
    kDone,
  };

  class Op : public SteppedOp {
   public:
    Op(InstrumentedOptimal& q, std::size_t slot, OpKind kind,
       std::uint64_t v = 0) noexcept
        : q_(q), slot_(slot), kind_(kind), arg_(v) {}

    void step() override;
    bool complete() const override { return phase_ == Phase::kDone; }
    OpKind kind() const override { return kind_; }
    std::uint64_t value() const override { return value_; }
    bool ok() const override { return ok_; }

    Phase phase() const noexcept { return phase_; }
    // True when the record the apply phases are working on is another
    // slot's announcement — the helper role.
    bool helping_other() const noexcept {
      return target_slot_ != kNoTarget && target_slot_ != slot_;
    }
    // True while the scan and install phases hand `cur_` on from a
    // decided installation rather than install into an idle `cur_`.
    bool handing_off() const noexcept {
      return (phase_ == Phase::kScan || phase_ == Phase::kInstall) &&
             !is_idle(from_);
    }
    // View-bind instrumentation: how often the bind CAS was granted, and
    // whether the *first* granted attempt wrote the field. For a parked
    // helper that first attempt is the poised, stale bind.
    unsigned bind_view_attempts() const noexcept {
      return bind_view_attempts_;
    }
    bool first_bind_view_fired() const noexcept {
      return first_bind_view_fired_;
    }
    // Vacate instrumentation: how often the step was granted, and whether
    // the *first* granted attempt mutated the cell.
    unsigned vacate_attempts() const noexcept { return vacate_attempts_; }
    bool first_vacate_fired() const noexcept { return first_vacate_fired_; }
    // Same for the enqueue-side cell CAS.
    unsigned cell_cas_attempts() const noexcept { return cell_cas_attempts_; }
    bool first_cell_cas_fired() const noexcept {
      return first_cell_cas_fired_;
    }

   private:
    friend class InstrumentedOptimal;

    static constexpr std::size_t kNoTarget = ~std::size_t{0};

    void respond() noexcept {
      const Rec& own = q_.recs_[slot_];
      ok_ = (own.state & 3) == kDoneState;
      value_ = kind_ == OpKind::kEnqueue ? arg_ : own.res;
      phase_ = Phase::kDone;
    }

    // Leave the target incarnation: it was decided or re-announced.
    void drop() noexcept { phase_ = Phase::kUninstall; }

    // findOp from the word `from`, the idle or decided word kInstall will
    // expect in cur_: start after the slot it names.
    void start_scan(std::uint64_t from) noexcept {
      from_ = from;
      scan_slot_ = slot_of(from);
      scan_n_ = 0;
      found_ = false;
      phase_ = Phase::kScan;
    }

    InstrumentedOptimal& q_;
    const std::size_t slot_;
    const OpKind kind_;
    const std::uint64_t arg_;
    std::uint64_t seq_ = 0;  // own seq, set at kAnnounce

    Phase phase_ = Phase::kAnnounce;
    std::uint64_t w_ = 0;     // word of cur_ being worked on
    std::uint64_t from_ = 0;  // the word kInstall expects in cur_
    std::size_t scan_slot_ = 0;  // findOp: the slot examined last
    std::size_t scan_n_ = 0;     // findOp: slots examined so far
    bool found_ = false;      // findOp: found_slot_ and found_seq_ are set
    std::size_t found_slot_ = 0;
    std::uint64_t found_seq_ = 0;
    // The target incarnation and the operation read from it.
    std::size_t target_slot_ = kNoTarget;
    std::uint64_t target_seq_ = 0;
    bool target_enq_ = false;
    std::uint64_t target_arg_ = 0;
    std::uint64_t view_read_ = 0;  // view word a bind will CAS in
    std::uint64_t start_ = 0, k_ = 0;  // validated view
    std::uint64_t res_ = 0;
    std::uint64_t elem_read_ = 0;
    unsigned bind_view_attempts_ = 0;
    bool first_bind_view_fired_ = false;
    unsigned vacate_attempts_ = 0;
    bool first_vacate_fired_ = false;
    unsigned cell_cas_attempts_ = 0;
    bool first_cell_cas_fired_ = false;
    bool ok_ = false;
    std::uint64_t value_ = 0;
  };

 private:
  friend class Op;

  static constexpr std::uint64_t kPending = 1;
  static constexpr std::uint64_t kDoneState = 2;
  static constexpr std::uint64_t kFailedState = 3;
  // cur_: an installed word slot<<48 | seq, or idle, bit 63 set on the last
  // installed word (the real queue's encoding).
  static constexpr std::uint64_t kIdleFlag = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

  // One slot's record. state = seq<<2 | status; seq 0 decided at start.
  struct Rec {
    std::uint64_t state = kDoneState;
    bool is_enqueue = false;
    std::uint64_t arg = 0;
    std::uint64_t bv = SentinelPolicy::unbound(0);
    std::uint64_t res = SentinelPolicy::unbound(0);
  };

  static std::uint64_t pack(std::size_t slot, std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(slot) << 48) | (seq & kSeqMask);
  }

  static bool is_idle(std::uint64_t w) noexcept {
    return (w & kIdleFlag) != 0;
  }

  static std::size_t slot_of(std::uint64_t w) noexcept {
    return static_cast<std::size_t>((w & ~kIdleFlag) >> 48);
  }

  const std::size_t cap_;
  std::vector<std::uint64_t> cells_;
  std::vector<Rec> recs_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  std::uint64_t cur_ = kIdleFlag;  // idle({0, 0}): seq 0 is never installed
  std::vector<std::size_t> installed_slots_;
};

template <class VacatePolicy, class SentinelPolicy>
void InstrumentedOptimal<VacatePolicy, SentinelPolicy>::Op::step() {
  using S = SentinelPolicy;
  InstrumentedOptimal& q = q_;
  Rec& own = q.recs_[slot_];
  Rec* tr = target_slot_ == kNoTarget ? nullptr : &q.recs_[target_slot_];
  switch (phase_) {
    case Phase::kAnnounce:
      assert((own.state & 3) != kPending && "slot's record still pending");
      seq_ = (own.state >> 2) + 1;
      own.is_enqueue = kind_ == OpKind::kEnqueue;
      own.arg = arg_;
      own.bv = own.res = S::unbound(seq_);
      own.state = (seq_ << 2) | kPending;
      phase_ = Phase::kReadCur;
      return;

    case Phase::kReadCur:
      w_ = q.cur_;
      if (is_idle(w_)) {
        start_scan(w_);
      } else {
        phase_ = Phase::kWait;
      }
      return;

    case Phase::kWait:
      if (own.state != ((seq_ << 2) | kPending)) {
        respond();  // the installer (or a helper) decided our operation
      } else {
        phase_ = Phase::kRecheckCur;
      }
      return;

    case Phase::kRecheckCur:
      w_ = q.cur_;
      if (is_idle(w_)) {
        start_scan(w_);
      } else {
        phase_ = Phase::kLookup;
      }
      return;

    case Phase::kScan: {  // findOp: one announcement slot per step
      const std::size_t mark = q.recs_.size();
      if (scan_n_ < mark) {
        // Cyclically from the slot after the last installed one.
        if (++scan_slot_ >= mark) scan_slot_ = 0;
        ++scan_n_;
        const Rec& r = q.recs_[scan_slot_];
        if ((r.state & 3) == kPending) {
          found_ = true;
          found_slot_ = scan_slot_;
          found_seq_ = r.state >> 2;
          phase_ = Phase::kInstall;
        }
        return;
      }
      // Nothing pending: a fresh findOp has nothing to install, a
      // hand-off still sets the decided word idle.
      phase_ = is_idle(from_) ? Phase::kCheckSelf : Phase::kInstall;
      return;
    }

    case Phase::kInstall: {
      // The installer applies its installation at once; a lost CAS sends
      // us back to wait on the winner's. No word of cur_ recurs, so a
      // helper that wakes up after `cur_` moved on misses.
      const std::uint64_t next =
          found_ ? pack(found_slot_, found_seq_) : from_ | kIdleFlag;
      if (q.cur_ == from_) {
        q.cur_ = next;
        if (found_) {
          q.installed_slots_.push_back(found_slot_);
          w_ = next;
          phase_ = Phase::kLookup;
          return;
        }
      }
      phase_ = Phase::kCheckSelf;
      return;
    }

    case Phase::kLookup: {
      const std::size_t slot = slot_of(w_);
      target_slot_ = kNoTarget;
      if (slot < q.recs_.size()) {
        const Rec& r = q.recs_[slot];
        if (((r.state >> 2) & kSeqMask) == (w_ & kSeqMask) &&
            (r.state & 3) == kPending) {
          target_slot_ = slot;
          target_seq_ = r.state >> 2;
          target_enq_ = r.is_enqueue;
          target_arg_ = r.arg;
          phase_ = Phase::kReadView;
          return;
        }
      }
      phase_ = Phase::kUninstall;
      return;
    }

    case Phase::kReadView:
      if (tr->bv == S::unbound(target_seq_)) {
        // k = min(n, room or size), n = 1 here.
        const std::uint64_t size = q.tail_ - q.head_;
        view_read_ =
            target_enq_
                ? opt_view(q.tail_, std::min<std::uint64_t>(1, q.cap_ - size))
                : opt_view(q.head_, std::min<std::uint64_t>(1, size));
        phase_ = Phase::kBindView;
      } else {
        phase_ = Phase::kValidate;
      }
      return;

    case Phase::kBindView:
      ++bind_view_attempts_;
      if (tr->bv == S::unbound(target_seq_)) {
        tr->bv = view_read_;
        if (bind_view_attempts_ == 1) first_bind_view_fired_ = true;
      }
      phase_ = Phase::kValidate;
      return;

    case Phase::kValidate:
      // A bound value names no seq: the view is this incarnation's only
      // if the record still is.
      start_ = tr->bv >> 4;
      k_ = tr->bv & 0xF;
      if ((tr->state >> 2) != target_seq_) {
        drop();
        return;
      }
      phase_ = target_enq_ ? Phase::kCheckFull : Phase::kCheckEmpty;
      return;

    case Phase::kCheckFull:
      phase_ = k_ == 0 ? Phase::kDecide : Phase::kCellRead;
      return;

    case Phase::kCellRead:
      elem_read_ = q.cells_[start_ % q.cap_];
      // Any word other than our round's ⊥ means a helper's write already
      // landed (the real queue relies on versioned bottoms for exactly
      // this inference).
      phase_ = elem_read_ == q.bot_for(start_) ? Phase::kCellCas
                                               : Phase::kAdvTail;
      return;

    case Phase::kCellCas: {
      ++cell_cas_attempts_;
      std::uint64_t& cell = q.cells_[start_ % q.cap_];
      if (cell == q.bot_for(start_)) {
        cell = target_arg_;
        if (cell_cas_attempts_ == 1) first_cell_cas_fired_ = true;
        phase_ = Phase::kAdvTail;
      } else {
        phase_ = Phase::kCellRead;  // someone's write landed; re-examine
      }
      return;
    }

    case Phase::kAdvTail:
      if (q.tail_ == start_) q.tail_ = start_ + k_;
      phase_ = Phase::kDecide;
      return;

    case Phase::kCheckEmpty:
      phase_ = k_ == 0 ? Phase::kDecide : Phase::kElemRead;
      return;

    case Phase::kElemRead:
      elem_read_ = q.cells_[start_ % q.cap_];
      phase_ = Phase::kBindRes;
      return;

    case Phase::kBindRes:
      if (tr->res == S::unbound(target_seq_)) {
        if (opt_is_bot(elem_read_)) {
          // The cell shows a bottom but the result is unbound: in a
          // correct execution this cannot happen (the vacate CASes *from*
          // the bound result). It is reachable only after an unguarded
          // stale vacate corrupted the cell — the dequeuer strands here,
          // exactly like the real protocol's re-enter loop.
          phase_ = Phase::kElemRead;
          return;
        }
        tr->res = elem_read_;
      }
      res_ = tr->res;
      if ((res_ & kOptUnboundFlag) != 0 || (tr->state >> 2) != target_seq_) {
        drop();
        return;
      }
      phase_ = Phase::kVacate;
      return;

    case Phase::kVacate: {
      ++vacate_attempts_;
      const bool fired =
          VacatePolicy::vacate(q.cells_[start_ % q.cap_], res_,
                               q.bot_for(start_ + q.cap_), q.head_, start_);
      if (fired && vacate_attempts_ == 1) first_vacate_fired_ = true;
      phase_ = Phase::kAdvHead;
      return;
    }

    case Phase::kAdvHead:
      if (q.head_ == start_) q.head_ = start_ + k_;
      phase_ = Phase::kDecide;
      return;

    case Phase::kDecide:
      if (tr->state == ((target_seq_ << 2) | kPending)) {
        tr->state = (target_seq_ << 2) | (k_ == 0 ? kFailedState : kDoneState);
      }
      phase_ = Phase::kUninstall;
      return;

    case Phase::kUninstall:
      // Never move cur_ off a still-pending incarnation (mirrors the real
      // queue's installed-until-decided invariant).
      if (tr != nullptr && tr->state == ((target_seq_ << 2) | kPending)) {
        target_slot_ = kNoTarget;
        phase_ = Phase::kCheckSelf;
        return;
      }
      target_slot_ = kNoTarget;
      if (own.state == ((seq_ << 2) | kPending)) {
        // Hand-off: findOp from the decided word, then kInstall CASes
        // cur_ from it.
        start_scan(w_);
        return;
      }
      if (q.cur_ == w_) q.cur_ = w_ | kIdleFlag;
      phase_ = Phase::kCheckSelf;
      return;

    case Phase::kCheckSelf:
      if (own.state == ((seq_ << 2) | kPending)) {
        phase_ = Phase::kReadCur;
      } else {
        respond();
      }
      return;

    case Phase::kDone:
      return;
  }
}

using GuardedOptimal = InstrumentedOptimal<GuardedVacate>;
using UnguardedOptimal = InstrumentedOptimal<UnguardedVacate>;
using SharedSentinelOptimal =
    InstrumentedOptimal<GuardedVacate, SharedSentinel>;

}  // namespace membq::adversary
