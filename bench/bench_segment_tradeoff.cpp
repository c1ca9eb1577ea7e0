// E2 — Listing 1's segment-size trade-off: overhead Θ(C/K + T·K) swept over
// K, with the paper's predicted minimum at K = √C.
//
// Two series per (C, K):
//   predicted — the closed-form Θ(C/K + T·K) model from §2.1, printed to
//               stdout with its minimum; exact, so the golden_segment_tradeoff
//               ctest entry diffs it against bench/golden/segment_tradeoff.txt;
//   measured  — real allocation through the counting allocator while a
//               T-thread workload churns the queue (segments in flight +
//               recycling pool + live chain), printed to stderr. It moves
//               between runs (at C=1024, K=8 and K=32 come within 24 B of
//               each other), so it stays out of the golden.

#include <cstdio>
#include <string>
#include <vector>

#include "common/counting_alloc.hpp"
#include "queues/segment_queue.hpp"
#include "workload/driver.hpp"

namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kOps = 20000;

// Live bytes beyond the elements of a K-segment queue of capacity C after
// a T-thread churn.
std::size_t measure(std::size_t c, std::size_t k) {
  auto& counter = membq::AllocCounter::instance();
  const std::size_t live_before = counter.live_bytes();
  membq::SegmentQueue q(c, k);
  // Churn: drive rounds through the ring so segments recycle.
  membq::workload::RunConfig cfg;
  cfg.threads = kThreads;
  cfg.ops_per_thread = kOps;
  cfg.mix = membq::workload::Mix::kBalanced;
  cfg.prefill = c / 2;
  (void)membq::workload::run_workload(q, cfg);
  const std::size_t live_now = counter.live_bytes() - live_before;
  const std::size_t element_bytes = q.element_bytes();
  return live_now > element_bytes ? live_now - element_bytes : 0;
}

// "8" for one minimum, "8|32" for a tie.
std::string argmins(const std::vector<std::size_t>& ks,
                    const std::vector<std::size_t>& bytes, std::size_t min) {
  std::string out;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (bytes[i] != min) continue;
    if (!out.empty()) out += '|';
    out += std::to_string(ks[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf(
      "=== E2: segment queue overhead vs segment size K (T = %zu) ===\n",
      kThreads);
  std::printf("%8s %8s %8s %14s  %s\n", "C", "K", "sqrt(C)", "predicted_B",
              "min?");

  for (std::size_t c : {1024, 4096, 16384}) {
    std::size_t sqrt_c = 1;
    while ((sqrt_c + 1) * (sqrt_c + 1) <= c) ++sqrt_c;

    std::vector<std::size_t> ks, predicted, measured;
    for (std::size_t k = 2; k <= c; k *= 4) {
      ks.push_back(k);
      predicted.push_back(
          membq::SegmentQueue::predicted_overhead_bytes(c, k, kThreads));
      measured.push_back(measure(c, k));
    }
    std::size_t best_predicted = predicted.front();
    std::size_t best_measured = measured.front();
    for (std::size_t i = 1; i < ks.size(); ++i) {
      if (predicted[i] < best_predicted) best_predicted = predicted[i];
      if (measured[i] < best_measured) best_measured = measured[i];
    }

    for (std::size_t i = 0; i < ks.size(); ++i) {
      std::printf("%8zu %8zu %8zu %14zu%s\n", c, ks[i], sqrt_c,
                  predicted[i],
                  predicted[i] == best_predicted ? "  <= min" : "");
    }
    std::printf("  -> predicted minimum %zu B at K=%s (paper predicts "
                "~sqrt(C)=%zu)\n\n",
                best_predicted,
                argmins(ks, predicted, best_predicted).c_str(), sqrt_c);

    for (std::size_t i = 0; i < ks.size(); ++i) {
      std::fprintf(stderr, "  measured C=%zu K=%zu: %zu B%s\n", c, ks[i],
                   measured[i],
                   measured[i] == best_measured ? "  <= min" : "");
    }
    std::fprintf(stderr,
                 "  -> measured minimum %zu B at K=%s (same order as "
                 "sqrt(C)=%zu expected)\n",
                 best_measured,
                 argmins(ks, measured, best_measured).c_str(), sqrt_c);
  }
  return 0;
}
