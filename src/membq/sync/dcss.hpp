// Double-Compare Single-Swap over 64-bit words, with lock-free helping.
//
// dcss(a1, e1, n1, a2, e2) atomically installs n1 into *a1 iff *a1 == e1
// AND *a2 == e2; only *a1 is written. This is the primitive behind the
// paper's L4 queue: the second comparand is a positioning counter, so a
// thread that slept through a full ring round cannot land a stale value.
//
// Implementation follows the Harris/Fraser descriptor scheme specialized
// to a fixed-size per-thread descriptor pool:
//   1. the owner publishes a marker (bit 63 set, encoding slot + sequence)
//     into *a1 by CAS from e1;
//   2. the owner reads *a2 and CASes its marker straight to n1 (match) or
//     e1 (mismatch). A helper that sees the marker reads *a2, records its
//     verdict in the descriptor's `decision` word with a CAS (the first
//     helper's verdict sticks), and replaces the marker with the value
//     that recorded verdict names. As in Harris, Fraser and Pratt's RDCSS
//     (DISC 2002), the first CAS that replaces the marker decides the
//     operation: an owner whose CAS lands returns its own verdict, and an
//     owner whose CAS fails reads the verdict from `decision`.
// Help is patient, as elsewhere in membq (kHelpPatience, sync/backoff.hpp):
// a thread that meets a marker, in read() or in place of its own e1,
// polls the word for up to kHelpPatience pauses and helps only a marker
// still there. Its owner is usually running and resolves it sooner;
// a helper's decision and resolution CASes would take the descriptor's
// and the word's lines from it mid-window. The owner also loads *a1
// before its install CAS, so a DCSS that would fail on a changed value
// or wait on another's marker does not take the word's line either.
// Descriptors are recycled via a per-slot sequence number: a marker whose
// sequence no longer matches its descriptor is dead and can only fail its
// final CAS, so helpers never act on reused state.
//
// The domain owns max_threads descriptor slots: Θ(T) memory in total,
// which is exactly the overhead class the L4 queue inherits.
//
// Values stored through a DCSS-managed word must keep bit 63 clear; the
// domain asserts this.
//
// Memory orders (policy `O`, default RingOrders): the protocol has three
// release/acquire pairings, annotated at each site in sync/dcss.cpp —
//   (a) descriptor activation: the owner's field stores are published by
//       the seqlock-style release store of `seq` (odd), observed by every
//       helper's acquire `seq` loads bracketing its field snapshot;
//   (b) the verdict: each decider reads *a2 after observing the marker in
//       *a1 (owner: its own acq_rel install CAS; helper: the acquire load
//       that surfaced the marker). A resolution CAS lands only while the
//       marker is in place, and a helper resolves only from a verdict
//       already recorded in `decision` (acq_rel CAS, acquire loads), so
//       the read that decides — the owner's own or the recorded one —
//       lies inside the marker window: the operation's linearization
//       point.
//   (c) resolution: the CAS replacing the marker releases n1 (or e1) to
//       every acquire read() of *a1. The owner's verdict travels by its
//       own resolution CAS (acq_rel, acquire on failure); a helper's by
//       `decision`. An owner whose CAS fails acquires the helper's
//       resolution, after which its `decision` load sees the verdict that
//       resolution carried.
// The window argument in (b) leans on per-location coherence for the *a2
// freshness (exact on multi-copy-atomic hardware; see
// sync/memory_order.hpp) — MEMBQ_SEQCST_RINGS restores the formally
// seq_cst decision of the pre-audit code.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sync/memory_order.hpp"

namespace membq {

template <class O = RingOrders>
class BasicDcssDomain {
 public:
  static constexpr std::size_t kDefaultMaxThreads = 64;
  // The marker encodes the slot in 15 bits (see make_marker).
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 15;
  static constexpr std::uint64_t kMarkerBit = std::uint64_t{1} << 63;

  explicit BasicDcssDomain(std::size_t max_threads = kDefaultMaxThreads);
  ~BasicDcssDomain();

  BasicDcssDomain(const BasicDcssDomain&) = delete;
  BasicDcssDomain& operator=(const BasicDcssDomain&) = delete;

  std::size_t max_threads() const noexcept { return max_threads_; }

  // Descriptor-free read: returns the logical value of *addr, helping any
  // in-flight DCSS whose marker it encounters. Never returns a marker.
  std::uint64_t read(const std::atomic<std::uint64_t>* addr) noexcept;

  // Per-thread access to the domain. Acquires one descriptor slot for its
  // lifetime; at most max_threads() handles may be live at once.
  class ThreadHandle {
   public:
    explicit ThreadHandle(BasicDcssDomain& domain);
    ~ThreadHandle();

    ThreadHandle(const ThreadHandle&) = delete;
    ThreadHandle& operator=(const ThreadHandle&) = delete;

    bool dcss(std::atomic<std::uint64_t>* a1, std::uint64_t e1,
              std::uint64_t n1, const std::atomic<std::uint64_t>* a2,
              std::uint64_t e2) noexcept;

   private:
    BasicDcssDomain& domain_;
    std::size_t slot_;
  };

 private:
  friend class ThreadHandle;

  enum Verdict : std::uint32_t {
    kUndecided = 0,
    kSucceeded = 1,
    kFailed = 2,
  };

  struct alignas(64) Descriptor {
    std::atomic<std::uint64_t> seq{0};  // even = quiescent, odd = active
    // (seq << 2) | Verdict, recorded by helpers only (the owner resets it
    // when it activates the descriptor). Carrying the sequence in the word
    // makes a stale helper's decision CAS fail once the descriptor is
    // recycled, instead of corrupting the next operation's verdict.
    std::atomic<std::uint64_t> decision{0};
    std::atomic<std::atomic<std::uint64_t>*> a1{nullptr};
    std::atomic<const std::atomic<std::uint64_t>*> a2{nullptr};
    std::atomic<std::uint64_t> e1{0};
    std::atomic<std::uint64_t> n1{0};
    std::atomic<std::uint64_t> e2{0};
  };

  static bool is_marker(std::uint64_t word) noexcept {
    return (word & kMarkerBit) != 0;
  }
  std::uint64_t make_marker(std::size_t slot, std::uint64_t seq) const
      noexcept {
    return kMarkerBit | (static_cast<std::uint64_t>(slot) << 48) |
           (seq & ((std::uint64_t{1} << 48) - 1));
  }

  // Drive the DCSS published as `marker` to completion (idempotent; safe
  // against descriptor recycling).
  void help(std::uint64_t marker) noexcept;
  // `marker`, seen in *addr by an acquire load: wait up to kHelpPatience
  // pauses for its owner to resolve it, then help it if still there.
  void wait_or_help(const std::atomic<std::uint64_t>* addr,
                    std::uint64_t marker) noexcept;

  std::size_t acquire_slot();
  void release_slot(std::size_t slot) noexcept;

  const std::size_t max_threads_;
  Descriptor* descriptors_;
  std::atomic<bool>* slot_used_;
};

// Both policies are explicitly instantiated in sync/dcss.cpp; the alias
// picks the build default (see sync/memory_order.hpp).
extern template class BasicDcssDomain<RelaxedOrders>;
extern template class BasicDcssDomain<SeqCstOrders>;

using DcssDomain = BasicDcssDomain<>;

}  // namespace membq
