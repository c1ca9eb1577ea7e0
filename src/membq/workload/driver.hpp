// Workload driver: runs a configurable enqueue/dequeue mix over any queue
// exposing the membq Handle concept and reports throughput (and optional
// latency percentiles).
//
// Queue concept:
//   static constexpr char kName[];
//   class Handle { explicit Handle(Q&); bool try_enqueue(uint64_t);
//                  bool try_dequeue(uint64_t&); };
//
// Values generated by the driver are globally distinct (thread id in the
// high bits, a private counter below) and keep bits 62/63 clear, so every
// queue in the registry — including the distinct-values L2 design and the
// DCSS ring with its reserved ⊥ — sees inputs within its contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/clock.hpp"
#include "common/pinning.hpp"
#include "workload/bulk.hpp"
#include "workload/histogram.hpp"

namespace membq {
namespace workload {

enum class Mix {
  kBalanced,      // 50/50 enqueue/dequeue, randomized per op
  kEnqueueHeavy,  // 7/8 enqueue: drives the full path
  kDequeueHeavy,  // 7/8 dequeue: drives the empty path
  kPairwise,      // even threads produce, odd threads consume
  kBursty,        // alternating bursts of 64 enqueues / 64 dequeues
};

const char* to_string(Mix mix) noexcept;

// Inverse of to_string(): parses the exact wire names ("balanced",
// "enq-heavy", ...). Returns false (out untouched) for anything else, so
// CLI parsing can report the bad token instead of silently defaulting.
bool mix_from_string(const std::string& name, Mix& out) noexcept;

struct RunConfig {
  std::size_t threads = 1;
  std::size_t ops_per_thread = 100000;
  Mix mix = Mix::kBalanced;
  std::size_t prefill = 0;
  bool sample_latency = false;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  // Items per operation. 1 = the classic per-item loop; > 1 issues
  // try_enqueue_bulk/try_dequeue_bulk batches (native where the queue has
  // them, per-item prefix loop otherwise — workload/bulk.hpp), with
  // ops_per_thread still counted in ITEMS so rows stay comparable.
  std::size_t batch = 1;
  // How worker tid maps to a CPU. Defaults to the process-wide policy
  // (the harness sets it from --pin-policy=).
  PinPolicy pin = default_pin_policy();
};

struct RunResult {
  std::string queue;
  std::size_t threads = 0;
  Mix mix = Mix::kBalanced;
  std::size_t batch = 1;  // items per operation (RunConfig::batch)
  std::uint64_t enq_ok = 0;
  std::uint64_t enq_fail = 0;
  std::uint64_t deq_ok = 0;
  std::uint64_t deq_fail = 0;
  double seconds = 0.0;
  double mops = 0.0;  // completed (successful) ops per microsecond
  bool latency_sampled = false;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;

  // How workers were pinned.
  PinPolicy pin = PinPolicy::kNone;

  // Merged across all worker threads; callers can keep merging results
  // from further runs and re-derive composed percentiles.
  LatencyHistogram latency;

  // One human-readable row for the bench tables.
  std::string format() const;
};

namespace detail {

// Distinct value: (tid+1) in bits 40..46, private sequence below. Bit 62
// and 63 stay clear for the reserved encodings.
inline std::uint64_t make_value(std::size_t tid, std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(tid + 1) << 40) |
         (seq & ((std::uint64_t{1} << 40) - 1));
}

inline std::uint64_t xorshift64(std::uint64_t& s) noexcept {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

struct ThreadStats {
  std::uint64_t enq_ok = 0, enq_fail = 0, deq_ok = 0, deq_fail = 0;
  // Per-worker wall-clock bounds: the run interval is [min(start),
  // max(end)] across workers, which stays correct even when a worker
  // finishes before the coordinating thread gets scheduled again.
  std::uint64_t start_ns = 0, end_ns = 0;
  // Constant-size log-bucketed histogram instead of a raw sample vector:
  // merging across threads/runs is counter addition, not a re-sort.
  LatencyHistogram latency;
};

// Fill in percentiles + mops from raw per-thread stats.
void finalize(RunResult& r, std::vector<ThreadStats>& stats);

constexpr std::size_t kBurstLen = 64;
constexpr std::size_t kSampleEvery = 16;

}  // namespace detail

template <class Q>
RunResult run_workload(Q& q, const RunConfig& cfg) {
  RunResult r;
  r.queue = Q::kName;
  r.threads = cfg.threads;
  r.mix = cfg.mix;
  r.batch = cfg.batch > 1 ? cfg.batch : 1;
  r.latency_sampled = cfg.sample_latency;
  r.pin = cfg.pin;

  {
    // Prefill from the calling thread; uses a tid beyond the workers so
    // values stay globally distinct.
    typename Q::Handle h(q);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < cfg.prefill; ++i) {
      if (!h.try_enqueue(detail::make_value(cfg.threads, seq++))) break;
    }
  }

  const std::size_t threads = cfg.threads > 0 ? cfg.threads : 1;
  std::vector<detail::ThreadStats> stats(threads);
  SpinBarrier barrier(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  for (std::size_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      if (cfg.pin != PinPolicy::kNone) pin_current_thread(tid, cfg.pin);
      typename Q::Handle h(q);
      detail::ThreadStats& st = stats[tid];
      std::uint64_t rng = cfg.seed ^ (0xD1B54A32D192ED03ull * (tid + 1));
      std::uint64_t seq = 0;
      const std::size_t batch = cfg.batch > 1 ? cfg.batch : 1;
      std::vector<std::uint64_t> buf(batch);  // allocated before the clock
      barrier.arrive_and_wait();
      st.start_ns = Stopwatch::now_ns();
      for (std::size_t i = 0; i < cfg.ops_per_thread;) {
        bool do_enqueue;
        switch (cfg.mix) {
          case Mix::kBalanced:
            do_enqueue = (detail::xorshift64(rng) & 1) != 0;
            break;
          case Mix::kEnqueueHeavy:
            do_enqueue = (detail::xorshift64(rng) & 7) != 0;
            break;
          case Mix::kDequeueHeavy:
            do_enqueue = (detail::xorshift64(rng) & 7) == 0;
            break;
          case Mix::kPairwise:
            do_enqueue = (tid % 2) == 0;
            break;
          case Mix::kBursty:
            do_enqueue = (i / detail::kBurstLen) % 2 == 0;
            break;
          default:
            do_enqueue = true;
        }
        const bool sample =
            cfg.sample_latency && (i % detail::kSampleEvery) == 0;
        const std::uint64_t t0 = sample ? Stopwatch::now_ns() : 0;
        std::size_t issued = 1;
        if (batch <= 1) {
          if (do_enqueue) {
            if (h.try_enqueue(detail::make_value(tid, seq++))) {
              ++st.enq_ok;
            } else {
              ++st.enq_fail;
            }
          } else {
            std::uint64_t out;
            if (h.try_dequeue(out)) {
              ++st.deq_ok;
            } else {
              ++st.deq_fail;
            }
          }
        } else {
          // One batched op covering up to `batch` items; ops_per_thread
          // counts items, so rows stay comparable across batch sizes.
          issued = cfg.ops_per_thread - i < batch ? cfg.ops_per_thread - i
                                                  : batch;
          if (do_enqueue) {
            for (std::size_t j = 0; j < issued; ++j) {
              buf[j] = detail::make_value(tid, seq++);
            }
            const std::size_t k = enqueue_bulk(h, buf.data(), issued);
            st.enq_ok += k;
            st.enq_fail += issued - k;
          } else {
            const std::size_t k = dequeue_bulk(h, buf.data(), issued);
            st.deq_ok += k;
            st.deq_fail += issued - k;
          }
        }
        if (sample) {
          // Per-item cost: one sampled op, elapsed split across its items.
          st.latency.record((Stopwatch::now_ns() - t0) / issued);
        }
        i += issued;
      }
      st.end_ns = Stopwatch::now_ns();
    });
  }

  barrier.arrive_and_wait();
  for (auto& w : workers) w.join();
  detail::finalize(r, stats);
  return r;
}

}  // namespace workload
}  // namespace membq
