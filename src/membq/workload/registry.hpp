// Registry of every general-purpose (MPMC) queue in membq, with uniform
// run and overhead entry points so the benches can sweep them all. The
// rows and their order come from workload/rows.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/overhead.hpp"
#include "workload/driver.hpp"

namespace membq {
namespace workload {

struct QueueSpec {
  std::string name;
  std::string claim;  // E9's claimed class (workload/rows.hpp)

  // Build a fresh instance with the given capacity and run the workload.
  std::function<RunResult(std::size_t capacity, const RunConfig& cfg)> run;

  // Build a fresh instance sized for `threads` handles, churn it full, and
  // report live heap overhead beyond the C element words.
  std::function<metrics::OverheadRow(std::size_t capacity,
                                     std::size_t threads)>
      overhead;
};

// One spec per row of workload/rows.hpp, in its order. `max_threads`
// bounds how many handles the Θ(T)-sized designs (and the SMR domains)
// provision when run() constructs them.
std::vector<QueueSpec> all_queues(std::size_t max_threads = 64);

// Type-erased queue for consumers configured at runtime by name (the net/
// server's --queue flag, sweep drivers). One virtual call per op instead
// of the registry's statically-typed run functions — fine for anything
// that also crosses a socket per op, wrong for the in-memory benches.
class DynQueue {
 public:
  class Handle {
   public:
    virtual ~Handle() = default;

    // Bulk ops (workload/bulk.hpp contract: best-effort prefix, short
    // count = full/empty, never a hole), the only virtual calls. They
    // reach a queue's native bulk body, or workload/bulk.hpp's per-item
    // fallback for rows without one.
    virtual std::size_t try_enqueue_bulk(const std::uint64_t* vs,
                                         std::size_t n) = 0;
    virtual std::size_t try_dequeue_bulk(std::uint64_t* out,
                                         std::size_t n) = 0;

    // Scalar ops are bulk(n=1).
    bool try_enqueue(std::uint64_t v) { return try_enqueue_bulk(&v, 1) == 1; }
    bool try_dequeue(std::uint64_t& out) {
      return try_dequeue_bulk(&out, 1) == 1;
    }
  };

  virtual ~DynQueue() = default;

  // A fresh per-thread handle; same concept (and same thread-affinity
  // expectations) as the underlying queue's Handle.
  virtual std::unique_ptr<Handle> make_handle() = 0;
};

// Build the registry row `name` (exactly the strings all_queues() reports)
// with the given capacity, provisioned for `max_threads` handles. Returns
// nullptr for an unknown name. Shares the one name→factory table with
// all_queues(), so a row cannot exist in one and not the other.
std::unique_ptr<DynQueue> make_queue_by_name(const std::string& name,
                                             std::size_t capacity,
                                             std::size_t max_threads = 64);

// Every registry row name, in table order (for --queue usage messages and
// sweep drivers).
std::vector<std::string> queue_names();

}  // namespace workload
}  // namespace membq
