#include "sync/dcss.hpp"

#include <cassert>
#include <stdexcept>

#include "sync/backoff.hpp"
#include "telemetry/counters.hpp"

namespace membq {

namespace {
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

std::size_t checked_slots(std::size_t max_threads, std::size_t max_slots) {
  if (max_threads > max_slots) {
    throw std::invalid_argument(
        "DcssDomain: max_threads exceeds the 15-bit marker slot field");
  }
  return max_threads == 0 ? 1 : max_threads;
}

}  // namespace

template <class O>
BasicDcssDomain<O>::BasicDcssDomain(std::size_t max_threads)
    : max_threads_(checked_slots(max_threads, kMaxSlots)),
      descriptors_(new Descriptor[max_threads_]),
      slot_used_(new std::atomic<bool>[max_threads_]) {
  for (std::size_t i = 0; i < max_threads_; ++i) {
    // Pre-publication: the domain is handed out after construction.
    slot_used_[i].store(false, O::init);
  }
}

template <class O>
BasicDcssDomain<O>::~BasicDcssDomain() {
  delete[] descriptors_;
  delete[] slot_used_;
}

template <class O>
std::size_t BasicDcssDomain<O>::acquire_slot() {
  for (std::size_t i = 0; i < max_threads_; ++i) {
    // Slot ownership handoff: the acquire half pairs with release_slot's
    // release store, so a new owner sees the descriptor quiescent (seq
    // even) as the previous owner left it; the release half publishes
    // the claim.
    if (!slot_used_[i].exchange(true, O::acq_rel)) {
      return i;
    }
  }
  throw std::runtime_error(
      "DcssDomain: more live ThreadHandles than max_threads");
}

template <class O>
void BasicDcssDomain<O>::release_slot(std::size_t slot) noexcept {
  // Release: publishes the final (even) descriptor seq to the slot's
  // next owner (paired with acquire_slot's acquire exchange).
  slot_used_[slot].store(false, O::release);
}

template <class O>
void BasicDcssDomain<O>::help(std::uint64_t marker) noexcept {
  const std::size_t slot = static_cast<std::size_t>((marker >> 48) & 0x7fff);
  const std::uint64_t seq = marker & kSeqMask;
  if (slot >= max_threads_) return;
  Descriptor& d = descriptors_[slot];

  // Pairing (a), descriptor activation: acquire on seq against the
  // owner's release activation store. A stale (smaller) seq means the
  // activation is not visible yet — bail; the owner is live and will
  // finish its own operation.
  if (d.seq.load(O::acquire) != seq) return;
  // Counted after the seq check so dead markers (recycled descriptors)
  // don't inflate the help count; everything past this line is a real
  // attempt to drive someone else's operation.
  telemetry::count(telemetry::Counter::k_dcss_help);
  std::atomic<std::uint64_t>* a1 = d.a1.load(O::relaxed);
  const std::atomic<std::uint64_t>* a2 = d.a2.load(O::relaxed);
  const std::uint64_t e1 = d.e1.load(O::relaxed);
  const std::uint64_t n1 = d.n1.load(O::relaxed);
  const std::uint64_t e2 = d.e2.load(O::relaxed);
  // Seqlock validation: fields only mutate while seq is even, so seeing
  // the same odd seq on both sides (acquire loads bracketing the relaxed
  // field snapshot) proves the snapshot is this operation's.
  if (d.seq.load(O::acquire) != seq) return;

  // The decision word carries the sequence, so a helper that stalls here
  // and wakes after the descriptor was recycled cannot decide (or
  // misread) the next operation: its expected value names the old seq.
  std::uint64_t decision = d.decision.load(O::acquire);
  if ((decision >> 2) != seq) return;  // recycled
  if ((decision & 3) == kUndecided) {
    // Pairing (b), the helper's verdict read. This helper observed the
    // marker in *a1 via an acquire load before arriving here, so this *a2
    // load is ordered after the marker install. Only helpers write
    // `decision`, and a helper resolves only once it is settled, so the
    // verdict a helper's resolution carries was read while the marker was
    // in place (freshness of *a2 within the window is the coherence
    // argument from sync/memory_order.hpp). If the owner resolved first,
    // the verdict recorded here is never applied: every helper's
    // resolution CAS below then misses.
    const std::uint64_t want =
        (seq << 2) |
        ((a2->load(O::acquire) == e2) ? kSucceeded : kFailed);
    std::uint64_t expected = (seq << 2) | kUndecided;
    // Release publishes the verdict (paired with the acquire decision
    // loads here and in an owner whose resolution CAS failed); acquire
    // orders the final CAS below after the verdict settles. Only the
    // first helper's verdict is recorded.
    d.decision.compare_exchange_strong(expected, want, O::acq_rel,
                                       O::acquire);
    decision = d.decision.load(O::acquire);
    if ((decision >> 2) != seq) return;  // recycled under us
  }

  // Pairing (c), resolution. If the owner (or another helper) resolved
  // first, or the descriptor was recycled after the decision read, this
  // CAS expects a marker that is gone and never reissued, so it fails
  // harmlessly. Release on success publishes the resolved value to
  // acquire read()s of *a1 and, through the owner's failed resolution
  // CAS, the decision this helper loaded; relaxed on failure (someone
  // else resolved first, nothing observed).
  std::uint64_t expected = marker;
  a1->compare_exchange_strong(expected,
                              (decision & 3) == kSucceeded ? n1 : e1,
                              O::release, O::relaxed);
}

template <class O>
void BasicDcssDomain<O>::wait_or_help(const std::atomic<std::uint64_t>* addr,
                                      std::uint64_t marker) noexcept {
  // Relaxed polls: they only decide whether to keep waiting. help() needs
  // the marker observed through an acquire load, which the caller made.
  for (std::uint32_t i = 0; i < kHelpPatience; ++i) {
    if (addr->load(O::relaxed) != marker) return;
    detail::cpu_relax();
  }
  help(marker);
}

template <class O>
std::uint64_t BasicDcssDomain<O>::read(const std::atomic<std::uint64_t>* addr)
    noexcept {
  for (;;) {
    // Acquire pairs with the resolution CAS (pairing (c)) and with the
    // value-publishing CASes of the rings above, so a value read here
    // carries the happens-before of whoever installed it.
    const std::uint64_t v = addr->load(O::acquire);
    if (!is_marker(v)) return v;
    wait_or_help(addr, v);
  }
}

template <class O>
BasicDcssDomain<O>::ThreadHandle::ThreadHandle(BasicDcssDomain& domain)
    : domain_(domain), slot_(domain.acquire_slot()) {}

template <class O>
BasicDcssDomain<O>::ThreadHandle::~ThreadHandle() {
  domain_.release_slot(slot_);
}

template <class O>
bool BasicDcssDomain<O>::ThreadHandle::dcss(
    std::atomic<std::uint64_t>* a1, std::uint64_t e1, std::uint64_t n1,
    const std::atomic<std::uint64_t>* a2, std::uint64_t e2) noexcept {
  assert(!is_marker(e1) && !is_marker(n1));
  Descriptor& d = domain_.descriptors_[slot_];

  // Own slot: only this handle writes seq while it owns the slot, so the
  // read needs no ordering.
  const std::uint64_t seq = d.seq.load(O::relaxed) + 1;
  // Field stores are relaxed: pairing (a) publishes them via the release
  // activation store of seq below (helpers bracket their snapshot with
  // acquire seq loads).
  d.a1.store(a1, O::relaxed);
  d.a2.store(a2, O::relaxed);
  d.e1.store(e1, O::relaxed);
  d.n1.store(n1, O::relaxed);
  d.e2.store(e2, O::relaxed);
  d.decision.store((seq << 2) | kUndecided, O::relaxed);
  d.seq.store(seq, O::release);  // activate descriptor (pairing (a))

  const std::uint64_t marker = domain_.make_marker(slot_, seq);
  bool published = false;
  // The test before the install (header): acquire, like the CAS failure
  // below, because a marker read here is passed to wait_or_help().
  std::uint64_t expected = a1->load(O::acquire);
  for (;;) {
    if (is_marker(expected)) {
      domain_.wait_or_help(a1, expected);
      expected = a1->load(O::acquire);
      continue;
    }
    if (expected != e1) break;  // a real value != e1: first comparand fails
    // Marker install: the release half makes the install ordered after
    // the activation store (helpers that bail on a stale seq retry via
    // read()'s loop); the acquire half orders the owner's *a2 load below
    // after the install — the start of the marker window (pairing (b)).
    // Failure must be acquire, not relaxed: a marker value read here is
    // passed to help(), whose decision path relies on the helper having
    // observed the marker through an acquire edge (the seqlock acquire
    // inside help() only synchronizes with the activation store, which
    // precedes the install — it cannot order the helper's *a2 read after
    // the marker landed in *a1).
    if (a1->compare_exchange_strong(expected, marker, O::acq_rel,
                                    O::acquire)) {
      published = true;
      break;
    }
  }

  bool ok = false;
  if (published) {
    telemetry::count(telemetry::Counter::k_dcss_owner_resolve);
    // Pairing (b), owner-side verdict read: ordered after our own
    // marker-install CAS (acq_rel above), i.e. inside the marker window.
    const bool matched = a2->load(O::acquire) == e2;
    // Pairing (c), resolution. The first CAS that replaces the marker
    // decides the operation, so the owner records no verdict: if this CAS
    // lands, the marker was still in place, and `matched` is the verdict.
    // Release publishes n1 (or e1) to read()s; the acquire half matters
    // only on failure (below), since a success reads our own marker.
    std::uint64_t m = marker;
    if (a1->compare_exchange_strong(m, matched ? n1 : e1, O::acq_rel,
                                    O::acquire)) {
      ok = matched;
    } else {
      // Only a helper removes our marker otherwise, and it resolves from
      // the `decision` word once a helper's decision CAS settled it (the
      // owner never writes it). Acquire on failure: the value read is
      // that helper's release resolution or a later CAS on *a1 (every
      // write to a DCSS-managed word is a CAS, so it extends the release
      // sequence), which makes the verdict the helper carried visible to
      // this load.
      ok = d.decision.load(O::acquire) == ((seq << 2) | kSucceeded);
    }
  }

  // Retire: the marker is guaranteed out of *a1 by now (our final CAS or
  // a helper's), so recycling the descriptor is safe. Release keeps the
  // resolution CAS ordered before the recycle for helpers that acquire
  // this seq.
  d.seq.store(seq + 1, O::release);
  return ok;
}

// All users go through one of these two policies (see sync/memory_order.hpp);
// keeping the definitions here keeps the template out of every TU.
template class BasicDcssDomain<RelaxedOrders>;
template class BasicDcssDomain<SeqCstOrders>;

}  // namespace membq
