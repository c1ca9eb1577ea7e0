// Memory-order policy for the ring queues and the sync primitives.
//
// Every ring in membq (L2 distinct, L3 LL/SC, L4 DCSS, the SCQ and Vyukov
// baselines, the role rings) and the primitives under them (DcssDomain,
// LLSCCell) take their atomic orderings from one of these policy structs
// instead of hard-coding them. Two policies exist:
//
//   RelaxedOrders — the audited orders: every site uses the weakest order
//       the protocol's release/acquire pairing supports, annotated at the
//       site with who publishes and who observes. This is the default.
//   SeqCstOrders  — every member collapses to seq_cst. Selected wholesale
//       by the MEMBQ_SEQCST_RINGS CMake option; the escape hatch that
//       restores the pre-audit behavior if a relaxation is ever suspected.
//
// Both policies are always compiled (the litmus suite instantiates the
// non-default one explicitly), so the fallback cannot bit-rot between CI
// runs of the MEMBQ_SEQCST_RINGS=ON job.
//
// A note on the proof obligation. The per-site annotations argue two
// kinds of safety:
//   * release/acquire pairings — a publisher's release store (or CAS) is
//     observed by a matching acquire load, giving happens-before for the
//     data behind it. These are exact C++-abstract-machine arguments.
//   * freshness arguments — protocol gates like "return full/empty" read
//     a monotone counter or a slot and rely on the value being current,
//     which per-location coherence plus the surrounding acquire chain
//     guarantees on every multi-copy-atomic target (x86, ARMv8) but the
//     C++ abstract machine alone does not promise. These sites are
//     annotated as such; tests/litmus_harness.hpp (native + TSan) and the
//     model-checker replays are the empirical proof, and
//     MEMBQ_SEQCST_RINGS is the formal fallback.
#pragma once

#include <atomic>

namespace membq {

struct RelaxedOrders {
  static constexpr const char* kName = "acq-rel";
  // Pre-publication initialization (constructor stores before the object
  // is handed to any other thread): never needs ordering in any policy.
  static constexpr std::memory_order init = std::memory_order_relaxed;
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;
  static constexpr std::memory_order acquire = std::memory_order_acquire;
  static constexpr std::memory_order release = std::memory_order_release;
  static constexpr std::memory_order acq_rel = std::memory_order_acq_rel;
  static constexpr std::memory_order seq_cst = std::memory_order_seq_cst;
};

struct SeqCstOrders {
  static constexpr const char* kName = "seq-cst";
  static constexpr std::memory_order init = std::memory_order_relaxed;
  // Everything else collapses to seq_cst — including sites the audit
  // classified relaxed — so this policy is at least as strong as the
  // pre-audit implicit-seq_cst code at every shared-protocol site.
  static constexpr std::memory_order relaxed = std::memory_order_seq_cst;
  static constexpr std::memory_order acquire = std::memory_order_seq_cst;
  static constexpr std::memory_order release = std::memory_order_seq_cst;
  static constexpr std::memory_order acq_rel = std::memory_order_seq_cst;
  static constexpr std::memory_order seq_cst = std::memory_order_seq_cst;
};

// Build-selected default for every ring/primitive alias (DistinctQueue,
// LlscQueue, DcssQueue, ScqRing, VyukovQueue, MpscRing, SpmcRing,
// LLSCCell, DcssDomain).
#if defined(MEMBQ_SEQCST_RINGS)
using RingOrders = SeqCstOrders;
#else
using RingOrders = RelaxedOrders;
#endif

}  // namespace membq
