#include "workload/registry.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/counting_alloc.hpp"
#include "reclaim/reclaim.hpp"
#include "workload/bulk.hpp"
#include "workload/rows.hpp"

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

// One row's spec. The registry builds the L1 rows at the paper's
// K = ⌊√C⌋ (segment size 0).
template <class R>
QueueSpec make_spec(const R& row, std::size_t max_threads) {
  const std::string name = row.name;
  const auto make = row.make;
  const auto aux = row.aux;
  QueueSpec spec;
  spec.name = name;
  spec.claim = row.claim;
  spec.run = [name, max_threads, make](std::size_t capacity,
                                       const RunConfig& cfg) {
    // Provision the Θ(T)-sized designs for the registry's declared thread
    // ceiling (that is the T in their memory/time class), with +1 headroom
    // over the active thread count for the driver's prefill handle.
    const std::size_t provision =
        std::max(max_threads, std::max<std::size_t>(cfg.threads, 1) + 1);
    auto q = make(capacity, provision, 0);
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
      auto q = make(capacity, threads, 0);
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
  for_each_row([&](auto row) { queues.push_back(make_spec(row, mt)); });
  return queues;
}

std::unique_ptr<DynQueue> make_queue_by_name(const std::string& name,
                                             std::size_t capacity,
                                             std::size_t max_threads) {
  const std::size_t mt = std::max<std::size_t>(max_threads, 2);
  std::unique_ptr<DynQueue> result;
  for_each_row([&](auto row) {
    if (result != nullptr || name != row.name) return;
    result = std::make_unique<DynQueueOf<typename decltype(row)::Queue>>(
        row.make(capacity, mt, 0));
  });
  return result;
}

std::vector<std::string> queue_names() {
  std::vector<std::string> names;
  for_each_row([&](auto row) { names.emplace_back(row.name); });
  return names;
}

}  // namespace workload
}  // namespace membq
