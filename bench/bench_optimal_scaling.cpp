// E11 — the paper's stated open question, measured: the memory-optimal
// queue pays Θ(T) time per operation because readElem/findOp scan the
// T-slot announcement array. We sweep the T parameter (announcement size)
// with T live handles, of which one active thread drives one and the
// other T−1 sit idle, so the growth is pure scan cost, not contention.
// (The lock-free queue scans only the slots handles have taken, so with
// one handle its op time would not grow with T at all.)
//
// Controls: op time must NOT grow with C (only with T) for either L5
// realization, and a Θ(C)-overhead O(1)-time queue (Vyukov) must not grow
// with anything.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/vyukov_queue.hpp"
#include "common/clock.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "core/optimal_queue.hpp"

namespace {

constexpr std::uint64_t kIters = 100000;

// Keep a computed value observable so the measured loop cannot be
// elided; the twin of google-benchmark's DoNotOptimize.
template <class T>
void keep(T const& value) noexcept {
  __asm__ __volatile__("" : : "r,m"(value) : "memory");
}

// One enqueue+dequeue pair per iteration on one handle while T−1 more
// stay live and idle; reports both throughput and ns per op.
template <class Q>
void pair_loop(const std::string& label, Q& q, std::uint64_t t_param) {
  std::vector<std::unique_ptr<typename Q::Handle>> idle;
  for (std::uint64_t i = 1; i < t_param; ++i) {
    idle.push_back(std::make_unique<typename Q::Handle>(q));
  }
  typename Q::Handle hd(q);
  std::uint64_t v = 1;
  membq::Stopwatch w;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    keep(hd.try_enqueue(v++));
    std::uint64_t out = 0;
    keep(hd.try_dequeue(out));
    keep(out);
  }
  const double secs = w.elapsed_s();
  const double ops = 2.0 * static_cast<double>(kIters);
  std::printf("  %-34s %10.2f Mops/s  %8.1f ns/op\n", label.c_str(),
              ops / secs / 1e6, secs / ops * 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("=== E11: L5 op cost vs announcement size T "
              "(T live handles, one active thread, %llu iters) ===\n",
              static_cast<unsigned long long>(kIters));
  for (std::size_t t : {1, 4, 16, 64, 256}) {
    membq::OptimalQueue q(/*capacity=*/1024, /*max_threads=*/t);
    pair_loop("optimal(L5)/T=" + std::to_string(t), q, t);
  }

  // The lock-free realization pays the same Θ(T) findOp scan per operation
  // (a single thread finds `cur_` empty every time, scans the T records of
  // the live handles and installs its own), plus the DCSS-guarded vacate;
  // it allocates and retires nothing. So its time must scale with T exactly
  // like the combining row — the memory-class verdict re-checked for the
  // readElem/findOp protocol.
  for (std::size_t t : {1, 4, 16, 64, 256}) {
    membq::LockFreeOptimalQueue q(/*capacity=*/1024, /*max_threads=*/t);
    pair_loop("optimal(L5,lf)/T=" + std::to_string(t), q, t);
  }

  std::printf("=== E11 control: op cost vs capacity C "
              "(must stay flat) ===\n");
  for (std::size_t c : {16, 256, 4096, 65536}) {
    membq::OptimalQueue q(c, /*max_threads=*/16);
    pair_loop("optimal(L5)/C=" + std::to_string(c), q, 16);
  }
  for (std::size_t c : {16, 256, 4096, 65536}) {
    membq::LockFreeOptimalQueue q(c, /*max_threads=*/16);
    pair_loop("optimal(L5,lf)/C=" + std::to_string(c), q, 16);
  }

  // Control: a Θ(C)-overhead queue with O(1)-time ops does NOT scale with
  // any T parameter — the contrast line for the open question.
  {
    membq::VyukovQueue q(1024);
    pair_loop("vyukov-control", q, 0);
  }
  return 0;
}
