#include "workload/driver.hpp"
#include "workload/registry.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "baselines/mutex_ring.hpp"
#include "baselines/spsc_ring.hpp"
#include "workload/bulk.hpp"
#include "workload/rows.hpp"

namespace {

using membq::workload::Mix;
using membq::workload::RunConfig;
using membq::workload::RunResult;

TEST(WorkloadDriverTest, AttemptAccountingIsExact) {
  membq::MutexRing q(64);
  RunConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 5000;
  cfg.mix = Mix::kBalanced;
  cfg.prefill = 32;
  const RunResult r = membq::workload::run_workload(q, cfg);
  EXPECT_EQ(r.enq_ok + r.enq_fail + r.deq_ok + r.deq_fail,
            cfg.threads * cfg.ops_per_thread);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.mops, 0.0);
  // Conservation: elements in the queue = prefill + enqueued - dequeued,
  // and that must fit the ring.
  const std::int64_t residue = static_cast<std::int64_t>(cfg.prefill) +
                               static_cast<std::int64_t>(r.enq_ok) -
                               static_cast<std::int64_t>(r.deq_ok);
  EXPECT_GE(residue, 0);
  EXPECT_LE(residue, static_cast<std::int64_t>(q.capacity()));
}

TEST(WorkloadDriverTest, PairwiseMixOnSpscRing) {
  membq::SpscRing q(64);
  RunConfig cfg;
  cfg.threads = 2;  // thread 0 produces, thread 1 consumes
  cfg.ops_per_thread = 20000;
  cfg.mix = Mix::kPairwise;
  cfg.prefill = 32;
  const RunResult r = membq::workload::run_workload(q, cfg);
  EXPECT_GT(r.enq_ok, 0u);
  EXPECT_GT(r.deq_ok, 0u);
  EXPECT_EQ(r.queue, std::string("spsc(lamport)"));
}

TEST(WorkloadDriverTest, LatencySamplingYieldsOrderedPercentiles) {
  membq::MutexRing q(256);
  RunConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 8000;
  cfg.mix = Mix::kBalanced;
  cfg.prefill = 128;
  cfg.sample_latency = true;
  const RunResult r = membq::workload::run_workload(q, cfg);
  EXPECT_GT(r.p50_ns, 0.0);
  EXPECT_GE(r.p99_ns, r.p50_ns);
  EXPECT_GE(r.p999_ns, r.p99_ns);
  EXPECT_GE(r.max_ns, r.p999_ns);
  const std::string line = r.format();
  EXPECT_NE(line.find("p99"), std::string::npos);
}

TEST(WorkloadDriverTest, FormatMentionsQueueAndMix) {
  membq::MutexRing q(16);
  RunConfig cfg;
  cfg.threads = 1;
  cfg.ops_per_thread = 100;
  cfg.mix = Mix::kBursty;
  const RunResult r = membq::workload::run_workload(q, cfg);
  const std::string line = r.format();
  EXPECT_NE(line.find("mutex(seq+lock)"), std::string::npos);
  EXPECT_NE(line.find("bursty"), std::string::npos);
  EXPECT_NE(line.find("Mops/s"), std::string::npos);
}

// workload/bulk.hpp's per-item fallback serves exactly the combining L5,
// michael-scott and mutex: every other row's Handle has native bulk bodies
// in both directions, llsc(L3), dcss(L4) and the lock-free L5 included.
TEST(WorkloadRegistryTest, OnlyCombiningL5MichaelScottAndMutexLackNativeBulk) {
  using namespace membq::workload::bulk_detail;
  const std::set<std::string> fallback = {"optimal(L5)", "michael-scott",
                                          "mutex(seq+lock)"};
  membq::workload::for_each_row([&](auto row) {
    using H = typename decltype(row)::Queue::Handle;
    const bool native = fallback.count(row.name) == 0;
    EXPECT_EQ(has_enqueue_bulk<H>::value, native) << row.name;
    EXPECT_EQ(has_dequeue_bulk<H>::value, native) << row.name;
  });
}

TEST(WorkloadRegistryTest, EveryQueueRunsEveryMix) {
  for (const auto& spec : membq::workload::all_queues(/*max_threads=*/8)) {
    for (Mix mix : {Mix::kBalanced, Mix::kEnqueueHeavy, Mix::kDequeueHeavy,
                    Mix::kPairwise, Mix::kBursty}) {
      RunConfig cfg;
      cfg.threads = 2;
      cfg.ops_per_thread = 1000;
      cfg.mix = mix;
      cfg.prefill = 8;
      const RunResult r = spec.run(32, cfg);
      EXPECT_EQ(r.queue, spec.name);
      EXPECT_EQ(r.enq_ok + r.enq_fail + r.deq_ok + r.deq_fail,
                cfg.threads * cfg.ops_per_thread)
          << spec.name << " / " << membq::workload::to_string(mix);
    }
  }
}

TEST(WorkloadRegistryTest, OverheadRowsAreWellFormed) {
  for (const auto& spec : membq::workload::all_queues(/*max_threads=*/8)) {
    const auto row = spec.overhead(128, 4);
    EXPECT_EQ(row.queue, spec.name);
    EXPECT_EQ(row.capacity, 128u);
    EXPECT_EQ(row.threads, 4u);
    // Sanity ceiling: no queue here needs 1KB of metadata per element.
    EXPECT_LT(row.overhead_bytes, 128u * 1024u) << spec.name;
  }
}

TEST(WorkloadRegistryTest, LockFreeL1ReportsReclamationBacklogSeparately) {
  // The drain inside the churn protocol retires segments; with a single
  // handle and the EBR batch horizon, some must still be parked when the
  // row is measured — in retired_bytes, never in overhead_bytes.
  for (const auto& spec : membq::workload::all_queues(/*max_threads=*/8)) {
    if (spec.name != "segment(L1,ebr)" && spec.name != "segment(L1,hp)") {
      continue;
    }
    const auto row = spec.overhead(1024, 4);
    EXPECT_GT(row.retired_bytes, 0u) << spec.name;
    EXPECT_LT(row.overhead_bytes, 256u * 1024u) << spec.name;
  }
}

}  // namespace
