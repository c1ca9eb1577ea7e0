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
#include "harness.hpp"

namespace {

// One enqueue+dequeue pair per iteration on one handle while T−1 more
// stay live and idle; reports both throughput and ns per op.
template <class Q>
void pair_loop(membq::bench::Harness& h, const std::string& label, Q& q,
               std::uint64_t iters, std::uint64_t t_param,
               std::uint64_t capacity) {
  std::vector<std::unique_ptr<typename Q::Handle>> idle;
  for (std::uint64_t i = 1; i < t_param; ++i) {
    idle.push_back(std::make_unique<typename Q::Handle>(q));
  }
  typename Q::Handle hd(q);
  std::uint64_t v = 1;
  membq::Stopwatch w;
  for (std::uint64_t i = 0; i < iters; ++i) {
    membq::bench::keep(hd.try_enqueue(v++));
    std::uint64_t out = 0;
    membq::bench::keep(hd.try_dequeue(out));
    membq::bench::keep(out);
  }
  const double secs = w.elapsed_s();
  const double ops = 2.0 * static_cast<double>(iters);
  const double mops = ops / secs / 1e6;
  const double ns_per_op = secs / ops * 1e9;
  std::printf("  %-34s %10.2f Mops/s  %8.1f ns/op\n", label.c_str(), mops,
              ns_per_op);
  h.record("e11/" + label)
      .param("T", t_param)
      .param("capacity", capacity)
      .metric("mops", mops)
      .metric("ns_per_op", ns_per_op);
}

}  // namespace

int main(int argc, char** argv) {
  membq::bench::Harness harness("optimal_scaling", argc, argv,
                              membq::bench::param::kOps);
  const std::uint64_t kIters = harness.ops(100000);

  std::printf("=== E11: L5 op cost vs announcement size T "
              "(T live handles, one active thread, %llu iters) ===\n",
              static_cast<unsigned long long>(kIters));
  for (std::size_t t : {1, 4, 16, 64, 256}) {
    membq::OptimalQueue q(/*capacity=*/1024, /*max_threads=*/t);
    pair_loop(harness, "optimal(L5)/T=" + std::to_string(t), q, kIters, t,
              1024);
  }

  // The lock-free realization pays the same Θ(T) findOp scan per operation
  // (a single thread finds `cur_` empty every time, scans the T records of
  // the live handles and installs its own), plus the DCSS-guarded vacate;
  // it allocates and retires nothing. So its time must scale with T exactly like the
  // combining row — the memory-class verdict re-checked for the
  // readElem/findOp protocol. The ebr and hp rows are registry spellings
  // of one class.
  for (std::size_t t : {1, 4, 16, 64, 256}) {
    membq::EbrOptimalQueue q(/*capacity=*/1024, /*max_threads=*/t);
    pair_loop(harness, "optimal(L5,lf,ebr)/T=" + std::to_string(t), q,
              kIters, t, 1024);
  }
  for (std::size_t t : {1, 4, 16, 64, 256}) {
    membq::HpOptimalQueue q(/*capacity=*/1024, /*max_threads=*/t);
    pair_loop(harness, "optimal(L5,lf,hp)/T=" + std::to_string(t), q, kIters,
              t, 1024);
  }

  std::printf("=== E11 control: op cost vs capacity C "
              "(must stay flat) ===\n");
  for (std::size_t c : {16, 256, 4096, 65536}) {
    membq::OptimalQueue q(c, /*max_threads=*/16);
    pair_loop(harness, "optimal(L5)/C=" + std::to_string(c), q, kIters, 16,
              c);
  }
  for (std::size_t c : {16, 256, 4096, 65536}) {
    membq::EbrOptimalQueue q(c, /*max_threads=*/16);
    pair_loop(harness, "optimal(L5,lf,ebr)/C=" + std::to_string(c), q,
              kIters, 16, c);
  }

  // Control: a Θ(C)-overhead queue with O(1)-time ops does NOT scale with
  // any T parameter — the contrast line for the open question.
  {
    membq::VyukovQueue q(1024);
    pair_loop(harness, "vyukov-control", q, kIters, 0, 1024);
  }
  return harness.finish();
}
