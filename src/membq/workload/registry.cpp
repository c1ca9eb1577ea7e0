#include "workload/registry.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "baselines/michael_scott.hpp"
#include "baselines/mutex_ring.hpp"
#include "baselines/scq_ring.hpp"
#include "baselines/vyukov_queue.hpp"
#include "common/counting_alloc.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "core/optimal_queue.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "queues/segment_queue.hpp"
#include "reclaim/reclaim.hpp"
#include "sharded/sharded_queue.hpp"
#include "sync/llsc.hpp"
#include "workload/bulk.hpp"

namespace membq {
namespace workload {

namespace {

struct ChurnMeasurement {
  std::size_t live_bytes = 0;     // heap delta vs the pre-construction mark
  std::size_t retired_bytes = 0;  // SMR backlog delta at measurement time
};

// Overhead protocol: fill to capacity, drain, fill again. The churn
// forces node/segment recycling structures (freelists, pools, reclamation
// domains) to reach their steady footprint, and the final fill leaves the
// queue full so element storage is exactly C words. Measurement happens
// while the handle is still live — destroying it would flush the SMR
// backlog, and a real workload's threads hold their handles at steady
// state.
template <class Q>
ChurnMeasurement churn_full(Q& q, std::size_t capacity,
                            std::size_t live_before,
                            std::size_t retired_before) {
  typename Q::Handle h(q);
  std::uint64_t seq = 1;
  std::uint64_t out;
  for (std::size_t i = 0; i < capacity; ++i) {
    (void)h.try_enqueue(detail::make_value(0, seq++));
  }
  for (std::size_t i = 0; i < capacity; ++i) (void)h.try_dequeue(out);
  for (std::size_t i = 0; i < capacity; ++i) {
    (void)h.try_enqueue(detail::make_value(0, seq++));
  }
  ChurnMeasurement m;
  m.live_bytes = AllocCounter::instance().live_bytes() - live_before;
  m.retired_bytes =
      reclaim::ReclaimCounter::instance().retired_bytes() - retired_before;
  return m;
}

// MakeFn: unique_ptr<Q>(capacity, threads). AuxFn: bytes to report
// separately instead of as algorithmic overhead (the LL/SC emulation
// stamps); zero for everything else.
template <class Q, class MakeFn, class AuxFn>
QueueSpec make_spec(std::string name, std::size_t max_threads, MakeFn make,
                    AuxFn aux) {
  QueueSpec spec;
  spec.name = name;
  spec.run = [name, max_threads, make](std::size_t capacity,
                                       const RunConfig& cfg) {
    // Provision the Θ(T)-sized designs for the registry's declared thread
    // ceiling (that is the T in their memory/time class), with +1 headroom
    // over the active thread count for the driver's prefill handle.
    const std::size_t provision =
        std::max(max_threads, std::max<std::size_t>(cfg.threads, 1) + 1);
    auto q = make(capacity, provision);
    RunResult r = run_workload(*q, cfg);
    r.queue = name;
    return r;
  };
  spec.overhead = [name, make, aux](std::size_t capacity,
                                    std::size_t threads) {
    const std::size_t before = AllocCounter::instance().live_bytes();
    const std::size_t retired_before =
        reclaim::ReclaimCounter::instance().retired_bytes();
    ChurnMeasurement m;
    {
      auto q = make(capacity, threads);
      // SMR-backed queues still hold drained segments/nodes in their
      // reclamation domain at measurement time; that backlog is live heap
      // but not algorithmic overhead, so it gets its own column and is
      // subtracted below.
      m = churn_full(*q, capacity, before, retired_before);
    }
    const std::size_t live = m.live_bytes;
    const std::size_t retired = m.retired_bytes;
    metrics::OverheadRow row;
    row.queue = name;
    row.capacity = capacity;
    row.threads = threads;
    const std::size_t element_bytes = capacity * sizeof(std::uint64_t);
    const std::size_t aux_bytes = aux(capacity, threads);
    const std::size_t gross = live > element_bytes ? live - element_bytes : 0;
    const std::size_t deductions = aux_bytes + retired;
    row.aux_bytes = aux_bytes;
    row.retired_bytes = retired;
    row.overhead_bytes = gross > deductions ? gross - deductions : 0;
    return row;
  };
  return spec;
}

std::size_t no_aux(std::size_t, std::size_t) { return 0; }

// Shard count of the sharded rows (part of their row names).
constexpr std::size_t kShards = 4;

// THE name→factory table. Every registry row is one visit() call:
// visit(name, make, aux) with make(capacity, threads) -> unique_ptr<Q>.
// all_queues(), make_queue_by_name() and queue_names() all walk this one
// enumeration, so a row cannot exist for the benches and be unknown to
// the --queue flag (or vice versa).
template <class Visitor>
void enumerate_queues(Visitor&& visit) {
  visit(OptimalQueue::kName,
        [](std::size_t c, std::size_t t) {
          return std::make_unique<OptimalQueue>(c, t);
        },
        no_aux);

  // Lock-free L5 realization (readElem/findOp announcement protocol). Its
  // records are recycled by sequence, so it takes no reclamation domain;
  // the two rows are the registry spellings of one class, kept until the
  // benchmark panel collapses them. The combining realization above stays
  // as the baseline row.
  for (const char* name : {"optimal(L5,lf,ebr)", "optimal(L5,lf,hp)"}) {
    visit(name,
          [](std::size_t c, std::size_t t) {
            return std::make_unique<LockFreeOptimalQueue>(c, t);
          },
          no_aux);
  }

  visit(DistinctQueue::kName,
        [](std::size_t c, std::size_t) {
          return std::make_unique<DistinctQueue>(c);
        },
        no_aux);

  visit(LlscQueue::kName,
        [](std::size_t c, std::size_t) {
          return std::make_unique<LlscQueue>(c);
        },
        [](std::size_t c, std::size_t) {
          return c * LLSCCell::emulation_overhead_bytes();
        });

  visit(DcssQueue::kName,
        [](std::size_t c, std::size_t t) {
          return std::make_unique<DcssQueue>(c, t);
        },
        no_aux);

  visit(SegmentQueue::kName,
        [](std::size_t c, std::size_t t) {
          return std::make_unique<SegmentQueue>(c, /*seg_size=*/0,
                                                /*pool_segments=*/t);
        },
        no_aux);

  // Lock-free L1 realizations, one row per reclamation backend; the mutex
  // realization above stays as the baseline row.
  visit(LockFreeSegmentQueue<reclaim::EpochDomain>::kName,
        [](std::size_t c, std::size_t t) {
          return std::make_unique<LockFreeSegmentQueue<reclaim::EpochDomain>>(
              c, /*seg_size=*/0, /*max_threads=*/t);
        },
        no_aux);

  visit(LockFreeSegmentQueue<reclaim::HazardDomain>::kName,
        [](std::size_t c, std::size_t t) {
          return std::make_unique<LockFreeSegmentQueue<reclaim::HazardDomain>>(
              c, /*seg_size=*/0, /*max_threads=*/t);
        },
        no_aux);

  visit(VyukovQueue::kName,
        [](std::size_t c, std::size_t) {
          return std::make_unique<VyukovQueue>(c);
        },
        no_aux);

  visit(ScqRing::kName,
        [](std::size_t c, std::size_t) { return std::make_unique<ScqRing>(c); },
        no_aux);

  visit(MichaelScottQueue::kName,
        [](std::size_t c, std::size_t t) {
          return std::make_unique<MichaelScottQueue>(c, /*max_threads=*/t);
        },
        no_aux);

  visit(MutexRing::kName,
        [](std::size_t c, std::size_t) { return std::make_unique<MutexRing>(c); },
        no_aux);

  // Sharded elastic layer: N shards of a base row behind the affinity /
  // po2-spill / work-stealing router. Two representative bases — the
  // fastest Θ(C) ring and the lock-free composite-class segment chain —
  // so every bench measures the sharding win and its routing overhead.
  // NOT globally linearizable: these rows carry the relaxed-FIFO contract
  // (docs/sharding.md) and the model checker applies its relaxed mode.
  visit("sharded(vyukov,4)",
        [](std::size_t c, std::size_t) {
          return std::make_unique<sharded::ShardedQueue<VyukovQueue>>(
              c, kShards, [](std::size_t per_shard) {
                return std::make_unique<VyukovQueue>(per_shard);
              });
        },
        no_aux);

  visit("sharded(segment-ebr,4)",
        [](std::size_t c, std::size_t t) {
          return std::make_unique<
              sharded::ShardedQueue<LockFreeSegmentQueue<reclaim::EpochDomain>>>(
              c, kShards, [t](std::size_t per_shard) {
                return std::make_unique<
                    LockFreeSegmentQueue<reclaim::EpochDomain>>(
                    per_shard, /*seg_size=*/0, /*max_threads=*/t);
              });
        },
        no_aux);
}

// Adapter from any registry row to the type-erased DynQueue: owns the
// concrete queue, hands out handle wrappers that forward the two bulk ops.
template <class Q>
class DynQueueOf final : public DynQueue {
 public:
  explicit DynQueueOf(std::unique_ptr<Q> q) : q_(std::move(q)) {}

  std::unique_ptr<Handle> make_handle() override {
    return std::make_unique<H>(*q_);
  }

 private:
  class H final : public Handle {
   public:
    explicit H(Q& q) : h_(q) {}
    // Native bulk when Q::Handle has it, per-item prefix loop otherwise.
    std::size_t try_enqueue_bulk(const std::uint64_t* vs,
                                 std::size_t n) override {
      return workload::enqueue_bulk(h_, vs, n);
    }
    std::size_t try_dequeue_bulk(std::uint64_t* out, std::size_t n) override {
      return workload::dequeue_bulk(h_, out, n);
    }

   private:
    typename Q::Handle h_;
  };

  std::unique_ptr<Q> q_;
};

}  // namespace

std::vector<QueueSpec> all_queues(std::size_t max_threads) {
  const std::size_t mt = std::max<std::size_t>(max_threads, 2);
  std::vector<QueueSpec> queues;
  queues.reserve(16);
  enumerate_queues([&](const char* name, auto make, auto aux) {
    using Q = typename decltype(make(std::size_t{1},
                                     std::size_t{2}))::element_type;
    queues.push_back(make_spec<Q>(name, mt, make, aux));
  });
  return queues;
}

std::unique_ptr<DynQueue> make_queue_by_name(const std::string& name,
                                             std::size_t capacity,
                                             std::size_t max_threads) {
  const std::size_t mt = std::max<std::size_t>(max_threads, 2);
  std::unique_ptr<DynQueue> result;
  enumerate_queues([&](const char* row, auto make, auto /*aux*/) {
    if (result != nullptr || name != row) return;
    result.reset(new DynQueueOf<typename decltype(make(
        std::size_t{1}, std::size_t{2}))::element_type>(make(capacity, mt)));
  });
  return result;
}

std::vector<std::string> queue_names() {
  std::vector<std::string> names;
  enumerate_queues([&](const char* name, auto /*make*/, auto /*aux*/) {
    names.emplace_back(name);
  });
  return names;
}

}  // namespace workload
}  // namespace membq
