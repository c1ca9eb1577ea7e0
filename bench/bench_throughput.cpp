// E12 — the SPSC relaxation (Discussion §5, restriction 1): on the
// pairwise workload with exactly one producer and one consumer, the
// single-role rings (SPSC, MPSC, SPMC) run against every general MPMC
// queue of the registry. The claim: relaxing the MPMC requirement buys
// back the synchronization the general designs pay for.
//
// Absolute numbers are machine-dependent; the series ORDER is the claim.

#include <cstdio>

#include "harness.hpp"
#include "workload/driver.hpp"
#include "workload/registry.hpp"
#include "workload/rows.hpp"

int main(int argc, char** argv) {
  using namespace membq::workload;
  namespace param = membq::bench::param;
  membq::bench::Harness harness(
      "throughput", argc, argv,
      param::kCapacity | param::kOps | param::kPinPolicy);

  const std::size_t kCapacity = harness.capacity(4096);
  const std::size_t kOps = harness.ops(200000);

  std::printf("=== E12: SPSC relaxation (Discussion §5, restriction 1) ===\n");
  // The pairwise mix at T=2 runs one producer thread and one consumer
  // thread, within every role ring's contract; the general MPMC queues run
  // the same workload.
  RunConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = kOps;
  cfg.mix = Mix::kPairwise;
  cfg.prefill = kCapacity / 2;
  for_each_role_row([&](auto row) {
    auto q = row.make(kCapacity, cfg.threads, 0);
    const RunResult r = run_workload(*q, cfg);
    std::printf("%s\n", r.format().c_str());
    harness.record("e12/" + r.queue).from(r);
  });
  for (const auto& q : all_queues()) {
    const RunResult r = q.run(kCapacity, cfg);
    std::printf("%s\n", r.format().c_str());
    harness.record("e12/" + r.queue).from(r);
  }
  return harness.finish();
}
