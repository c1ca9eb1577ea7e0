// Zero-cost-when-off operation counters for the lock-free internals.
//
// The bench tables say *what* a number is; these counters say *why* it
// moved: CAS retry storms, LL/SC validation failures, DCSS helper races,
// findOp helping, backoff spins vs yields, epoch advances, hazard scans,
// reclaimed nodes. Each thread owns one cache-line-padded block of plain
// single-writer counters (relaxed atomic load+store, no lock prefix on
// x86); blocks register with a process registry so snapshot() can sum
// across live threads plus everything threads folded in when they exited.
//
// The whole surface is behind the MEMBQ_TELEMETRY CMake option:
//   ON  — count() is a thread-local relaxed increment (a handful of ns on
//         the paths that already missed a CAS or crossed an epoch).
//   OFF — count() is an empty inline function, so every hook in queues/,
//         sync/ and reclaim/ compiles to nothing; snapshot() returns
//         zeros and enabled() is false, so benches and tests need no
//         #ifdefs. TelemetryContract.EnabledMatchesBuildFlag and CI's nm
//         check on an OFF build hold it to that.
//
// Concurrency contract: count() is wait-free and per-thread; snapshot()
// and reset() take the registry mutex and may run concurrently with
// counting threads (the relaxed atomics make torn reads impossible,
// though a snapshot taken mid-operation is naturally approximate).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace membq {
namespace telemetry {

// One X-macro so the enum and the name table can never drift apart.
#define MEMBQ_TELEMETRY_COUNTERS(X)                                         \
  X(enq_attempt)        /* calls (scalar or bulk) entering a queue;     */  \
                        /* the workload/bulk.hpp fallback counts one    */  \
                        /* per item; the lock-free L5 one per call, not */  \
                        /* one per announcement of up to kBulk items    */  \
  X(deq_attempt)        /* calls (scalar or bulk) entering a queue;     */  \
                        /* the workload/bulk.hpp fallback counts one    */  \
                        /* per item; the lock-free L5 one per call, not */  \
                        /* one per announcement of up to kBulk items    */  \
  X(cas_fail)           /* failed slot/counter CAS inside a retry loop  */  \
  X(floor_reload)       /* ring handle reloaded a stale counter floor   */  \
  X(llsc_sc_fail)       /* LL/SC store-conditional (validation) misses  */  \
  X(dcss_help)          /* helper passes over a live DCSS descriptor    */  \
  X(dcss_owner_resolve) /* DCSSes whose owner installed its marker,     */  \
                        /* whoever then resolved it                     */  \
  X(findop_help)        /* L5 findOp/readElem announcement helps        */  \
  X(backoff_spin)       /* Backoff::pause() spin episodes               */  \
  X(backoff_yield)      /* pause() episodes that fell back to yield     */  \
  X(epoch_advance)      /* successful EBR global-epoch advances         */  \
  X(ebr_amnesty)        /* EBR amnesty batches walked                   */  \
  X(hazard_scan)        /* HP full-slot scans                           */  \
  X(reclaimed_node)     /* objects handed back to a deleter (any SMR)   */  \
  X(shard_affinity_hit) /* sharded items served by their home shard     */  \
  X(shard_len_probe)    /* no count site; kept while                    */  \
                        /* membq-bench/src/layers.cpp reads it          */  \
  X(shard_steal)        /* sharded dequeued items from a non-home shard */  \
  X(net_frames_rx)      /* complete protocol frames parsed by a server  */  \
  X(net_would_block)    /* server responses sent with WOULD_BLOCK       */  \
  X(net_batch_items)    /* total ENQ/DEQ values; mean = /net_frames_rx  */

enum class Counter : unsigned {
#define MEMBQ_TELEMETRY_ENUM(name) k_##name,
  MEMBQ_TELEMETRY_COUNTERS(MEMBQ_TELEMETRY_ENUM)
#undef MEMBQ_TELEMETRY_ENUM
      kCount
};

constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

// Stable wire name ("cas_fail", ...); never nullptr for a valid Counter.
const char* counter_name(Counter c) noexcept;

// Additive value-type view of the counters: what snapshot() returns, and
// what a caller subtracts (delta_since) to attribute counts to one run.
struct CounterSnapshot {
  std::uint64_t v[kCounterCount] = {};

  std::uint64_t operator[](Counter c) const noexcept {
    return v[static_cast<unsigned>(c)];
  }

  CounterSnapshot& operator+=(const CounterSnapshot& o) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) v[i] += o.v[i];
    return *this;
  }

  // Per-counter difference vs an earlier snapshot. Counters are
  // monotonic, but a reset() between the two snapshots could make a
  // component go backwards; saturate at zero instead of wrapping.
  CounterSnapshot delta_since(const CounterSnapshot& earlier) const noexcept {
    CounterSnapshot d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      d.v[i] = v[i] >= earlier.v[i] ? v[i] - earlier.v[i] : 0;
    }
    return d;
  }

  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < kCounterCount; ++i) t += v[i];
    return t;
  }
};

// Sum over every live thread block plus the drained aggregate of exited
// threads. All-zeros when the build has telemetry off.
CounterSnapshot snapshot();

// Zero every live block and the drained aggregate (bench/test epoch
// boundary; do not call concurrently with a measured run).
void reset();

#if defined(MEMBQ_TELEMETRY) && MEMBQ_TELEMETRY

constexpr bool enabled() noexcept { return true; }

namespace detail {

// One cache line per thread so counting never bounces lines between
// workers; single-writer, so increments are relaxed load+store (plain
// add on x86), not atomic RMW.
// Registry membership is an intrusive doubly-linked list through the
// blocks themselves (guarded by the registry mutex): telemetry must not
// allocate through the global counting allocator, or its bookkeeping
// would show up as "leaked" bytes in the memory-overhead measurements
// and the reclaim leak tests.
struct alignas(64) ThreadCounters {
  std::atomic<std::uint64_t> v[kCounterCount];
  ThreadCounters* prev = nullptr;
  ThreadCounters* next = nullptr;

  ThreadCounters() noexcept;   // zeroes + registers with the registry
  ~ThreadCounters() noexcept;  // folds into the drained aggregate
};

ThreadCounters& local() noexcept;

}  // namespace detail

inline void count(Counter c, std::uint64_t n = 1) noexcept {
  std::atomic<std::uint64_t>& slot =
      detail::local().v[static_cast<unsigned>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

#else  // telemetry compiled out

constexpr bool enabled() noexcept { return false; }

inline void count(Counter, std::uint64_t = 1) noexcept {}

#endif

}  // namespace telemetry
}  // namespace membq
