// Small ring queues built for attackability. Shared state is plain memory
// mutated only through SteppedOp state machines, so the adversary
// (ScheduledExecution) controls the interleaving completely — no real
// threads, fully deterministic. One template ring, three bottom-value
// policies, because the bottom encoding is exactly the axis Theorem 3.12
// turns on:
//
//   NaiveBottom       a single ⊥ forever        → one round of staleness
//                                                 revives a poised CAS
//   TsigasZhangBottom two alternating nulls     → survives one round of
//                                                 staleness, dies at two
//   VersionedBottom   unbounded round counter   → the distinct(L2)
//                                                 assumption; never revives
//
// The protocol is the ticket scheme of queues/ticket_ring.hpp, the one
// ring of L2, L3 and L4, whose cell policy is the same axis; here the
// bottom encoding is factored out and each step() is one shared
// load/CAS/store. It leaves out the ring's dequeue tail gate, which
// vacates ticket h only once tail_ > h and helps tail_ past a written
// ticket h first: the mirror's dequeue reads tail_ before the cell and
// reports empty while tail_ ≤ h. No schedule here turns on that gate, and
// the handles' counter floors and bulk continuations are left out too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adversary/scheduled_execution.hpp"

namespace membq::adversary {

// Bottoms carry bit 63, like DistinctQueue's ⊥; user values must keep it
// clear. The low bits hold whatever round information the policy keeps.
constexpr std::uint64_t kBotBit = std::uint64_t{1} << 63;

constexpr bool is_bot(std::uint64_t w) noexcept { return (w & kBotBit) != 0; }

// expected(t): the bottom an enqueuer at ticket t must find in its cell.
// vacated(h): the bottom a dequeuer at ticket h writes when emptying it.
// served(cur, h): does `cur` prove ticket h was already dequeued? (The
// naive ring cannot tell "served" from "enqueue in flight" — no rounds —
// so it must retry; that ambiguity is part of what the theorem exploits.)
struct NaiveBottom {
  static std::uint64_t expected(std::uint64_t, std::size_t) noexcept {
    return kBotBit;
  }
  static std::uint64_t vacated(std::uint64_t, std::size_t) noexcept {
    return kBotBit;
  }
  static bool served(std::uint64_t, std::uint64_t, std::size_t) noexcept {
    return false;
  }
};

struct TsigasZhangBottom {
  static std::uint64_t expected(std::uint64_t t, std::size_t cap) noexcept {
    return kBotBit | ((t / cap) % 2);
  }
  static std::uint64_t vacated(std::uint64_t h, std::size_t cap) noexcept {
    return kBotBit | ((h / cap + 1) % 2);
  }
  static bool served(std::uint64_t cur, std::uint64_t h,
                     std::size_t cap) noexcept {
    return cur == vacated(h, cap);
  }
};

struct VersionedBottom {
  static std::uint64_t expected(std::uint64_t t, std::size_t cap) noexcept {
    return kBotBit | (t / cap);
  }
  static std::uint64_t vacated(std::uint64_t h, std::size_t cap) noexcept {
    return kBotBit | (h / cap + 1);
  }
  static bool served(std::uint64_t cur, std::uint64_t h,
                     std::size_t cap) noexcept {
    return cur == vacated(h, cap);
  }
};

template <class Bottom>
class InstrumentedRing {
 public:
  explicit InstrumentedRing(std::size_t capacity)
      : cap_(capacity), cells_(capacity, Bottom::expected(0, capacity)) {}

  std::size_t capacity() const noexcept { return cap_; }

  class EnqueueOp : public SteppedOp {
   public:
    EnqueueOp(InstrumentedRing& ring, std::uint64_t v) noexcept
        : r_(ring), v_(v) {}

    void step() override {
      switch (st_) {
        case St::kReadTail:
          t_ = r_.tail_;
          st_ = St::kReadHead;
          return;
        case St::kReadHead:
          h_ = r_.head_;
          st_ = St::kReadCell;
          return;
        case St::kReadCell: {
          const std::uint64_t cur = r_.cells_[t_ % r_.cap_];
          if (t_ >= h_ + r_.cap_) {  // full against the (possibly stale) view
            respond(false);
            return;
          }
          if (!is_bot(cur)) {
            st_ = St::kHelpTail;  // ticket t_ already written; help, retry
            return;
          }
          if (cur == Bottom::expected(t_, r_.cap_)) {
            expected_ = cur;
            st_ = St::kCas;  // the yield point the adversary exploits
            return;
          }
          st_ = St::kReadTail;  // wrong-round bottom: reload the tail
          return;
        }
        case St::kCas: {
          std::uint64_t& cell = r_.cells_[t_ % r_.cap_];
          ++cas_attempts_;
          if (cell == expected_) {
            cell = v_;
            if (cas_attempts_ == 1) first_cas_fired_ = true;
            st_ = St::kAdvanceTail;
          } else {
            st_ = St::kReadTail;
          }
          return;
        }
        case St::kAdvanceTail:
          if (r_.tail_ == t_) r_.tail_ = t_ + 1;
          respond(true);
          return;
        case St::kHelpTail:
          if (r_.tail_ == t_) r_.tail_ = t_ + 1;
          st_ = St::kReadTail;
          return;
        case St::kDone:
          return;
      }
    }

    bool complete() const override { return st_ == St::kDone; }
    OpKind kind() const override { return OpKind::kEnqueue; }
    std::uint64_t value() const override { return v_; }
    bool ok() const override { return ok_; }

    // Whether the FIRST CAS this op attempted succeeded. For a parked
    // victim that first attempt is the poised, stale CAS — a retried CAS
    // that lands later is a legitimate success and does not count.
    bool first_cas_fired() const noexcept { return first_cas_fired_; }

    // The op's next step is its CAS: the schedules park victims here.
    bool poised_at_cas() const noexcept { return st_ == St::kCas; }

   private:
    enum class St {
      kReadTail,
      kReadHead,
      kReadCell,
      kCas,
      kAdvanceTail,
      kHelpTail,
      kDone
    };

    void respond(bool ok) noexcept {
      ok_ = ok;
      st_ = St::kDone;
    }

    InstrumentedRing& r_;
    const std::uint64_t v_;
    St st_ = St::kReadTail;
    std::uint64_t t_ = 0;
    std::uint64_t h_ = 0;
    std::uint64_t expected_ = 0;
    unsigned cas_attempts_ = 0;
    bool first_cas_fired_ = false;
    bool ok_ = false;
  };

  class DequeueOp : public SteppedOp {
   public:
    explicit DequeueOp(InstrumentedRing& ring) noexcept : r_(ring) {}

    void step() override {
      switch (st_) {
        case St::kReadHead:
          h_ = r_.head_;
          st_ = St::kReadTail;
          return;
        case St::kReadTail:
          t_ = r_.tail_;
          // The classic counters-first emptiness test: a value a stale CAS
          // smuggled past the tail is invisible here — that is the loss the
          // checker convicts.
          if (t_ <= h_) {
            respond(false);
            return;
          }
          st_ = St::kReadCell;
          return;
        case St::kReadCell: {
          const std::uint64_t cur = r_.cells_[h_ % r_.cap_];
          if (!is_bot(cur)) {
            expected_ = cur;
            st_ = St::kCas;
            return;
          }
          if (Bottom::served(cur, h_, r_.cap_)) {
            st_ = St::kHelpHead;  // ticket h_ already dequeued; help, retry
            return;
          }
          st_ = St::kReadHead;  // enqueue in flight: retry
          return;
        }
        case St::kCas: {
          std::uint64_t& cell = r_.cells_[h_ % r_.cap_];
          if (cell == expected_) {
            cell = Bottom::vacated(h_, r_.cap_);
            out_ = expected_;
            st_ = St::kAdvanceHead;
          } else {
            st_ = St::kReadHead;
          }
          return;
        }
        case St::kAdvanceHead:
          if (r_.head_ == h_) r_.head_ = h_ + 1;
          respond(true);
          return;
        case St::kHelpHead:
          if (r_.head_ == h_) r_.head_ = h_ + 1;
          st_ = St::kReadHead;
          return;
        case St::kDone:
          return;
      }
    }

    bool complete() const override { return st_ == St::kDone; }
    OpKind kind() const override { return OpKind::kDequeue; }
    std::uint64_t value() const override { return out_; }
    bool ok() const override { return ok_; }

    // The op's next step is its CAS: the schedules park victims here.
    bool poised_at_cas() const noexcept { return st_ == St::kCas; }

   private:
    enum class St {
      kReadHead,
      kReadTail,
      kReadCell,
      kCas,
      kAdvanceHead,
      kHelpHead,
      kDone
    };

    void respond(bool ok) noexcept {
      ok_ = ok;
      st_ = St::kDone;
    }

    InstrumentedRing& r_;
    St st_ = St::kReadHead;
    std::uint64_t h_ = 0;
    std::uint64_t t_ = 0;
    std::uint64_t expected_ = 0;
    std::uint64_t out_ = 0;
    bool ok_ = false;
  };

 private:
  const std::size_t cap_;
  std::vector<std::uint64_t> cells_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

using NaiveRing = InstrumentedRing<NaiveBottom>;
using TsigasZhangRing = InstrumentedRing<TsigasZhangBottom>;
using VersionedRing = InstrumentedRing<VersionedBottom>;

}  // namespace membq::adversary
