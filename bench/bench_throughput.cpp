// E10 / E12 / E15 / E16 — throughput across every queue and thread count,
// balanced MPMC mix plus the SPSC relaxation series. The paper's motivating
// shape: compact (memory-friendly) queues beat node-per-element designs
// under contention, the blocking queue falls behind scalable ones as T
// grows, and the SPSC relaxation buys back everything when the
// application allows it.
//
// E15 runs the same sweep under skewed and bursty mixes: enqueue-heavy
// pushes every queue against its full path, dequeue-heavy against its
// empty path, bursty against round transitions (segment boundaries, cycle
// flips, versioned-⊥ round bumps). E16 samples per-operation latency
// percentiles: the paper's memory-friendliness argument is ultimately a
// tail-latency argument (fewer cache misses, no allocator excursions), and
// node-per-element designs show it in p99/p999 first.
//
// Absolute numbers are machine-dependent; the series ORDER is the claim.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/role_rings.hpp"
#include "baselines/scq_ring.hpp"
#include "baselines/spsc_ring.hpp"
#include "baselines/vyukov_queue.hpp"
#include "common/pinning.hpp"
#include "harness.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "sync/memory_order.hpp"
#include "workload/driver.hpp"
#include "workload/registry.hpp"

namespace {

// One configuration of the registry sweep: `cfg` runs on every
// all_queues() row, and each record is labelled
// <experiment>/<queue><suffix>. A scenario whose header differs from the
// previous one's starts a new table.
struct Scenario {
  std::string header;
  std::string experiment;
  std::string suffix;
  std::size_t capacity;
  membq::workload::RunConfig cfg;
};

// E10 (balanced MPMC across T), E15 (mixes at fixed T) and E16 (latency
// percentiles across T): the registry sweeps that differ only in their
// RunConfig.
std::vector<Scenario> registry_scenarios(const membq::bench::Harness& h) {
  using namespace membq::workload;
  std::vector<Scenario> out;

  const std::size_t c10 = h.capacity(4096);
  const std::size_t ops10 = h.ops(200000);
  const std::string e10 =
      "=== E10: balanced MPMC throughput (C = " + std::to_string(c10) +
      ", " + std::to_string(ops10) + " ops/thread, " +
      std::to_string(membq::online_cpus()) + " cpu(s) online) ===";
  for (std::size_t threads : h.threads({1, 2, 4, 8})) {
    RunConfig cfg;
    cfg.threads = threads;
    cfg.ops_per_thread = ops10 / threads;
    cfg.mix = h.mix(Mix::kBalanced);
    cfg.prefill = c10 / 2;
    out.push_back({e10, "e10", "/T=" + std::to_string(threads), c10, cfg});
  }

  const std::size_t c15 = h.capacity(1024);
  const std::size_t t15 = h.threads({4}).front();
  const std::string e15 = "=== E15: workload mixes (C = " +
                          std::to_string(c15) + ", T = " +
                          std::to_string(t15) + ") ===";
  for (Mix mix : {Mix::kBalanced, Mix::kEnqueueHeavy, Mix::kDequeueHeavy,
                  Mix::kPairwise, Mix::kBursty}) {
    RunConfig cfg;
    cfg.threads = t15;
    cfg.ops_per_thread = h.ops(50000);
    cfg.mix = mix;
    cfg.prefill = c15 / 2;
    out.push_back({e15, "e15", std::string("/") + to_string(mix), c15, cfg});
  }

  const std::size_t c16 = h.capacity(1024);
  const std::string e16 =
      "=== E16: op latency percentiles (C = " + std::to_string(c16) + ") ===";
  for (std::size_t threads : h.threads({1, 4})) {
    RunConfig cfg;
    cfg.threads = threads;
    cfg.ops_per_thread = h.ops(30000);
    cfg.mix = h.mix(Mix::kBalanced);
    cfg.prefill = c16 / 2;
    cfg.sample_latency = true;
    out.push_back({e16, "e16", "/T=" + std::to_string(threads), c16, cfg});
  }
  return out;
}

// One row of the E10b comparison: run `q` and tag the row with the
// memory-order policy it was instantiated with.
template <class Q>
void order_row(membq::bench::Harness& h, Q& q,
               const membq::workload::RunConfig& cfg, const char* mode) {
  membq::workload::RunResult r = membq::workload::run_workload(q, cfg);
  r.queue += std::string("[") + mode + "]";
  std::printf("%s\n", r.format().c_str());
  h.record("e10b/" + r.queue + "/T=" + std::to_string(cfg.threads)).from(r);
}

// Both policies of one ring template, back to back. The pinned
// instantiations make the comparison available from a single binary —
// no MEMBQ_SEQCST_RINGS rebuild needed to see the fence cost.
template <template <class> class Q>
void order_pair(membq::bench::Harness& h, std::size_t cap,
                const membq::workload::RunConfig& cfg) {
  {
    Q<membq::RelaxedOrders> q(cap);
    order_row(h, q, cfg, membq::RelaxedOrders::kName);
  }
  {
    Q<membq::SeqCstOrders> q(cap);
    order_row(h, q, cfg, membq::SeqCstOrders::kName);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace membq::workload;
  membq::bench::Harness harness("throughput", argc, argv);

  const std::size_t kCapacity = harness.capacity(4096);
  const std::size_t kOps = harness.ops(200000);

  std::string header;
  for (const Scenario& s : registry_scenarios(harness)) {
    if (s.header != header) {
      header = s.header;
      std::printf("%s\n", header.c_str());
    }
    for (const auto& q : all_queues()) {
      const RunResult r = q.run(s.capacity, s.cfg);
      std::printf("%s\n", r.format().c_str());
      harness.record(s.experiment + "/" + r.queue + s.suffix)
          .from(r)
          .param("capacity", static_cast<std::uint64_t>(s.capacity));
    }
    std::printf("\n");
  }

  std::printf("=== E10b: ring memory orders — audited acq-rel vs the \n"
              "    MEMBQ_SEQCST_RINGS escape hatch (build default: %s) ===\n",
              membq::RingOrders::kName);
  for (std::size_t threads : harness.threads({1, 2, 4})) {
    RunConfig cfg;
    cfg.threads = threads;
    cfg.ops_per_thread = kOps / threads;
    cfg.mix = harness.mix(Mix::kBalanced);
    cfg.prefill = kCapacity / 2;
    order_pair<membq::BasicDistinctQueue>(harness, kCapacity, cfg);
    order_pair<membq::BasicLlscQueue>(harness, kCapacity, cfg);
    order_pair<membq::BasicScqRing>(harness, kCapacity, cfg);
    order_pair<membq::BasicVyukovQueue>(harness, kCapacity, cfg);
    {
      membq::BasicDcssQueue<membq::RelaxedOrders> q(kCapacity, threads + 1);
      order_row(harness, q, cfg, membq::RelaxedOrders::kName);
    }
    {
      membq::BasicDcssQueue<membq::SeqCstOrders> q(kCapacity, threads + 1);
      order_row(harness, q, cfg, membq::SeqCstOrders::kName);
    }
    std::printf("\n");
  }

  std::printf("=== E18: batched ops — per-item (B=1) vs bulk (--batch=N) "
              "publication amortization ===\n");
  {
    // Per-item and batched rows from ONE binary, over the queues with a
    // native bulk path (one ticket-range reservation per batch; for the
    // lock-free L5, one announcement per twelve items). The claim: the B>1
    // row is never slower than its B=1 twin — publication cost amortizes
    // (an earlier measurement put it at the uncontended ceiling).
    const std::size_t kBatch = harness.batch(8);
    const char* kBulkRows[] = {
        membq::VyukovQueue::kName,  membq::ScqRing::kName,
        membq::DistinctQueue::kName, membq::LlscQueue::kName,
        membq::DcssQueue::kName,    membq::EbrSegmentQueue::kName,
        "sharded(vyukov,4)",        "optimal(L5,lf,ebr)",
    };
    RunConfig cfg;
    cfg.threads = 4;
    cfg.ops_per_thread = kOps / cfg.threads;
    cfg.mix = harness.mix(Mix::kBalanced);
    cfg.prefill = kCapacity / 2;
    for (const auto& spec : all_queues()) {
      bool selected = false;
      for (const char* n : kBulkRows) selected |= spec.name == n;
      if (!selected) continue;
      for (const std::size_t b : {std::size_t{1}, kBatch}) {
        cfg.batch = b;
        const RunResult r = spec.run(kCapacity, cfg);
        std::printf("%s  [B=%zu]\n", r.format().c_str(), b);
        harness.record("e18/" + r.queue + "/B=" + std::to_string(b))
            .from(r)
            .param("capacity", static_cast<std::uint64_t>(kCapacity));
      }
    }
    std::printf("\n");
  }

  std::printf("=== E12: SPSC relaxation (Discussion §5, restriction 1) ===\n");
  {
    // The SPSC ring runs the pairwise mix with exactly 2 threads; compare
    // with the general MPMC queues on the same workload.
    RunConfig cfg;
    cfg.threads = 2;
    cfg.ops_per_thread = kOps;
    cfg.mix = Mix::kPairwise;
    cfg.prefill = kCapacity / 2;
    {
      membq::SpscRing q(kCapacity);
      const RunResult r = run_workload(q, cfg);
      std::printf("%s\n", r.format().c_str());
      harness.record("e12/" + r.queue).from(r);
    }
    {
      membq::MpscRing q(kCapacity);  // T=2 pairwise: exactly one consumer
      const RunResult r = run_workload(q, cfg);
      std::printf("%s\n", r.format().c_str());
      harness.record("e12/" + r.queue).from(r);
    }
    {
      membq::SpmcRing q(kCapacity);  // T=2 pairwise: exactly one producer
      const RunResult r = run_workload(q, cfg);
      std::printf("%s\n", r.format().c_str());
      harness.record("e12/" + r.queue).from(r);
    }
    for (const auto& q : all_queues()) {
      const RunResult r = q.run(kCapacity, cfg);
      std::printf("%s\n", r.format().c_str());
      harness.record("e12/" + r.queue).from(r);
    }
  }
  return harness.finish();
}
