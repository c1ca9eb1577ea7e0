// E2 — Listing 1's segment-size trade-off: overhead Θ(C/K + T·K) swept over
// K, with the paper's predicted minimum at K = √C.
//
// Two series per (C, K):
//   predicted — the closed-form Θ(C/K + T·K) model from §2.1;
//   measured  — real allocation through the counting allocator while a
//               T-thread workload churns the queue (segments in flight +
//               recycling pool + live chain).

#include <cstdio>
#include <string>
#include <vector>

#include "common/counting_alloc.hpp"
#include "harness.hpp"
#include "queues/segment_queue.hpp"
#include "workload/driver.hpp"

int main(int argc, char** argv) {
  using membq::AllocCounter;
  using membq::SegmentQueue;
  namespace param = membq::bench::param;
  membq::bench::Harness harness(
      "segment_tradeoff", argc, argv,
      param::kThreads | param::kOps | param::kPinPolicy);

  const std::size_t kThreads = harness.threads({4}).front();
  const std::size_t kOps = harness.ops(20000);
  std::printf(
      "=== E2: segment queue overhead vs segment size K (T = %zu) ===\n",
      kThreads);
  std::printf("%8s %8s %8s %14s %14s %10s\n", "C", "K", "sqrt(C)",
              "predicted_B", "measured_B", "min?");

  for (std::size_t c : {1024, 4096, 16384}) {
    std::size_t sqrt_c = 1;
    while ((sqrt_c + 1) * (sqrt_c + 1) <= c) ++sqrt_c;

    std::size_t best_k = 0;
    std::size_t best_measured = ~std::size_t{0};
    struct Row {
      std::size_t k, predicted, measured;
    };
    std::vector<Row> rows;

    for (std::size_t k = 2; k <= c; k *= 4) {
      const std::size_t predicted =
          SegmentQueue::predicted_overhead_bytes(c, k, kThreads);

      auto& counter = AllocCounter::instance();
      const std::size_t live_before = counter.live_bytes();
      {
        SegmentQueue q(c, k);
        // Churn: drive rounds through the ring so segments recycle.
        membq::workload::RunConfig cfg;
        cfg.threads = kThreads;
        cfg.ops_per_thread = kOps;
        cfg.mix = membq::workload::Mix::kBalanced;
        cfg.prefill = c / 2;
        (void)membq::workload::run_workload(q, cfg);
        const std::size_t live_now = counter.live_bytes() - live_before;
        const std::size_t element_bytes = q.element_bytes();
        const std::size_t measured =
            live_now > element_bytes ? live_now - element_bytes : 0;
        rows.push_back(Row{k, predicted, measured});
        if (measured < best_measured) {
          best_measured = measured;
          best_k = k;
        }
        harness
            .record("e2/C=" + std::to_string(c) + "/K=" + std::to_string(k))
            .param("capacity", static_cast<std::uint64_t>(c))
            .param("seg_size", static_cast<std::uint64_t>(k))
            .param("threads", static_cast<std::uint64_t>(kThreads))
            .metric("predicted_bytes", static_cast<std::uint64_t>(predicted))
            .metric("measured_bytes", static_cast<std::uint64_t>(measured));
      }
    }
    for (const Row& r : rows) {
      std::printf("%8zu %8zu %8zu %14zu %14zu %10s\n", c, r.k, sqrt_c,
                  r.predicted, r.measured,
                  r.k == best_k ? "<= min" : "");
    }
    std::printf("  -> measured minimum at K=%zu (paper predicts ~sqrt(C)=%zu;"
                " same order expected)\n\n",
                best_k, sqrt_c);
    harness.record("e2/minimum/C=" + std::to_string(c))
        .param("capacity", static_cast<std::uint64_t>(c))
        .metric("best_k", static_cast<std::uint64_t>(best_k))
        .metric("sqrt_c", static_cast<std::uint64_t>(sqrt_c));
  }
  return harness.finish();
}
