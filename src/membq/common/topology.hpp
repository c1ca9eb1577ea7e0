// CPU/NUMA topology discovery from sysfs, honoring the process cpuset.
//
// Thread pinning starts here: which CPUs this process may actually run
// on (`sched_getaffinity`, NOT `_SC_NPROCESSORS_ONLN` — the two differ
// under taskset/cgroup cpusets and the difference is exactly the pinning
// bug this layer fixes), which NUMA node each CPU belongs to, and which
// CPUs are SMT siblings of one physical core.
//
// Discovery reads the standard sysfs files:
//   <root>/devices/system/cpu/online                      (cpulist)
//   <root>/devices/system/cpu/cpu<N>/topology/core_id
//   <root>/devices/system/cpu/cpu<N>/topology/physical_package_id
//   <root>/devices/system/node/node<N>/cpulist            (per node)
//
// `<root>` defaults to "/sys" and is injectable so tests can parse a
// committed fixture tree (tests/fixtures/sysfs_2node_smt) and assert the
// derived node/core/sibling sets without multi-socket hardware. Every
// file is optional: a missing topology directory degrades to "each CPU
// is its own core on node 0", which makes this layer a no-op on minimal
// containers — behavior there is identical to the pre-topology code.
//
// The cores-first pin order is the load-bearing output: all lowest-
// numbered siblings (one per physical core, sorted by node, package,
// core), then the remaining SMT siblings in the same core order. Pinning
// worker tids through this order covers physical cores before doubling
// up on hyperthreads, so measured scaling is core scaling, not SMT
// scaling. On a non-SMT machine the order is the allowed set sorted by
// CPU id — i.e. the identity mapping the driver always had.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace membq {
namespace topo {

struct Cpu {
  int id = -1;        // logical CPU id
  int node = 0;       // NUMA node (0 when sysfs has no node directory)
  int package = 0;    // physical_package_id (socket)
  int core = 0;       // core_id within the package
  // 0 for the lowest-numbered allowed CPU of its physical core, 1 for
  // the next sibling, and so on. Rank 0 CPUs form the cores-first prefix
  // of the pin order.
  int smt_rank = 0;
};

class Topology {
 public:
  // The allowed CPUs, ascending by id.
  const std::vector<Cpu>& cpus() const noexcept { return cpus_; }

  // Distinct NUMA node ids with at least one allowed CPU, ascending.
  const std::vector<int>& nodes() const noexcept { return nodes_; }

  // CPU ids in cores-first order (see header comment).
  const std::vector<int>& pin_order() const noexcept { return pin_order_; }

  std::size_t allowed_cpus() const noexcept { return cpus_.size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  // Number of distinct (node, package, core) groups among allowed CPUs.
  std::size_t physical_cores() const noexcept { return physical_cores_; }

  // The CPU the k-th worker should pin to (k wraps past the allowed set).
  int pin_cpu(std::size_t k) const noexcept {
    return pin_order_.empty()
               ? 0
               : pin_order_[k % pin_order_.size()];
  }

  // NUMA node of an allowed CPU; -1 when `cpu` is not in the allowed set.
  int node_of(int cpu) const noexcept;

  // Allowed CPUs of one node, in pin (cores-first) order — the order
  // consumers homed on that node should be placed in.
  std::vector<int> cpus_on_node(int node) const;

 private:
  friend Topology discover(const std::string&, const std::vector<int>&);

  std::vector<Cpu> cpus_;
  std::vector<int> nodes_;
  std::vector<int> pin_order_;
  std::size_t physical_cores_ = 0;
};

// Parse a Linux cpulist ("0-3,8,10-11"; empty string = empty set).
// Returns false (out untouched) on malformed input.
bool parse_cpulist(const std::string& text, std::vector<int>& out);

// The calling thread's allowed CPUs via sched_getaffinity, ascending.
// Falls back to {0, ..., sysconf(_SC_NPROCESSORS_ONLN)-1} off Linux or on
// syscall failure; never returns an empty vector.
std::vector<int> allowed_cpus();

// Discover the topology under `sysfs_root`, restricted to `allowed`
// (empty = every CPU the sysfs online list names). Missing sysfs files
// degrade per the header comment rather than failing.
Topology discover(const std::string& sysfs_root,
                  const std::vector<int>& allowed);

// Process-wide topology: discover("/sys", allowed_cpus()) computed once
// at first use. Static hardware facts only — callers that must honor a
// mask changed *after* startup (the pinning layer) intersect with a
// fresh allowed_cpus() themselves.
const Topology& system();

// Empty tag with no effect. Its only user is membq-bench/src/panel.hpp,
// whose sharded row builds each shard through a
// (per_shard, const MemPolicySpec&) factory; VyukovQueue's second
// constructor parameter and ShardedQueue's two-argument factory
// dispatch accept it for that file alone.
struct MemPolicySpec {};

}  // namespace topo
}  // namespace membq
