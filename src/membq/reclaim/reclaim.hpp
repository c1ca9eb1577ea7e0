// Safe-memory-reclamation (SMR) subsystem: shared vocabulary.
//
// A lock-free data structure that unlinks a node cannot free it while other
// threads may still hold a reference; it hands the node to a *reclamation
// domain* instead. Every domain in this directory implements the same
// concept, so queues template over the backend:
//
//   Domain:
//     static constexpr char kShortName[];          // "ebr" / "hp"
//     explicit Domain(std::size_t max_threads);
//     std::size_t retired_bytes() const noexcept;  // retired, not yet freed
//     std::size_t retired_objects() const noexcept;
//
//   Domain::ThreadHandle (one per thread, holds a domain slot):
//     explicit ThreadHandle(Domain&);
//     class Guard { explicit Guard(ThreadHandle&); ~Guard(); };
//         // brackets one operation: EBR pins the epoch, HP clears its
//         // hazard slots on exit. Every protect/retire happens inside one.
//     template <class T>
//     T* protect(std::size_t slot, const std::atomic<T*>& src) noexcept;
//         // safe load of a root pointer: the returned node cannot be freed
//         // while the guard (EBR) or the hazard slot (HP) holds it. HP
//         // validates by re-reading src, so src must never point to an
//         // already-retired node (unlink from every root before retiring).
//     template <class T>
//     void set(std::size_t slot, T* p) noexcept;
//         // publish an already-loaded pointer (HP); the caller re-validates
//         // reachability afterwards. No-op for EBR.
//     void retire(void* p, std::size_t bytes, void (*deleter)(void*));
//         // hand over an unlinked node; `deleter` runs exactly once, when
//         // no thread can hold a reference anymore.
//     void flush();
//         // best-effort drain of this thread's backlog (tests, shutdown).
//
// Backends: EpochDomain (epoch.hpp) — Fraser-style 3-epoch limbo lists,
// cheapest per-op cost, backlog bounded only by reader quiescence;
// HazardDomain (hazard.hpp) — Michael-style per-thread hazard slots,
// per-protect fence cost, backlog bounded by the scan threshold.
//
// Accounting: every retire adds the object's bytes plus the bookkeeping
// record to the process-global ReclaimCounter (and the per-domain
// counters); every reclaim subtracts the same. The overhead experiments
// (E9) subtract this backlog from the measured live heap so a reclamation
// queue never masquerades as algorithmic overhead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace membq {
namespace reclaim {

// One retired-but-not-yet-freed object. Domains keep these in intrusive
// singly-linked lists (per-thread limbo/retired lists, orphan lists).
struct RetiredRecord {
  void* ptr = nullptr;
  std::size_t bytes = 0;                 // the object's own footprint
  void (*deleter)(void*) = nullptr;
  std::uint64_t epoch = 0;               // EBR: global epoch at retire time
  RetiredRecord* next = nullptr;
};

// Process-global backlog accounting, mirroring AllocCounter: bytes and
// object counts that have been retired to *some* domain and not yet
// reclaimed. Bytes include the RetiredRecord bookkeeping itself, so the
// counter matches what the counting allocator still sees as live.
class ReclaimCounter {
 public:
  std::size_t retired_bytes() const noexcept;
  std::size_t retired_objects() const noexcept;

  // Cumulative number of objects ever handed back to a deleter.
  std::size_t reclaimed_objects() const noexcept;

  static ReclaimCounter& instance() noexcept;

 private:
  friend void account_retire(std::size_t bytes) noexcept;
  friend void account_reclaim(std::size_t bytes) noexcept;
};

// Internal hooks for the domains.
void account_retire(std::size_t bytes) noexcept;
void account_reclaim(std::size_t bytes) noexcept;

// Walk an orphaned/limbo list, run every deleter, release the records and
// undo the accounting. Only safe when no thread can reference the objects
// (domain destruction, post-scan leftovers known unprotected).
void free_record_list(RetiredRecord* head) noexcept;

}  // namespace reclaim
}  // namespace membq
