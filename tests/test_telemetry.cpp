// Telemetry subsystem tests: counter bookkeeping (including thread exit
// folding), attribution of queue-level hooks, and the zero-cost-when-off
// contract. Every test runs in both builds: with MEMBQ_TELEMETRY=OFF the
// same assertions flip to all-zeros via telemetry::enabled().
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "baselines/vyukov_queue.hpp"
#include "telemetry/counters.hpp"
#include "workload/driver.hpp"

namespace mt = membq::telemetry;

namespace {

std::uint64_t get(const mt::CounterSnapshot& s, mt::Counter c) { return s[c]; }

TEST(TelemetryCounters, NamesAreStableAndDistinct) {
  for (std::size_t i = 0; i < mt::kCounterCount; ++i) {
    const char* a = mt::counter_name(static_cast<mt::Counter>(i));
    ASSERT_NE(a, nullptr);
    EXPECT_GT(std::string(a).size(), 0u);
    for (std::size_t j = i + 1; j < mt::kCounterCount; ++j) {
      EXPECT_STRNE(a, mt::counter_name(static_cast<mt::Counter>(j)));
    }
  }
}

TEST(TelemetryCounters, SnapshotArithmetic) {
  mt::CounterSnapshot a, b;
  a.v[0] = 10;
  a.v[1] = 5;
  b.v[0] = 3;
  b.v[2] = 7;
  mt::CounterSnapshot sum = a;
  sum += b;
  EXPECT_EQ(sum.v[0], 13u);
  EXPECT_EQ(sum.v[1], 5u);
  EXPECT_EQ(sum.v[2], 7u);
  EXPECT_EQ(sum.total(), 25u);

  const mt::CounterSnapshot d = sum.delta_since(a);
  EXPECT_EQ(d.v[0], 3u);
  EXPECT_EQ(d.v[1], 0u);
  EXPECT_EQ(d.v[2], 7u);

  // A reset between snapshots can make components go backwards; the delta
  // saturates at zero instead of wrapping to ~2^64.
  const mt::CounterSnapshot neg = a.delta_since(sum);
  EXPECT_EQ(neg.v[0], 0u);
  EXPECT_EQ(neg.v[2], 0u);
}

TEST(TelemetryCounters, CountAndReset) {
  mt::reset();
  mt::count(mt::Counter::k_cas_fail);
  mt::count(mt::Counter::k_cas_fail, 9);
  const mt::CounterSnapshot s = mt::snapshot();
  if (mt::enabled()) {
    EXPECT_EQ(get(s, mt::Counter::k_cas_fail), 10u);
  } else {
    EXPECT_EQ(s.total(), 0u);
  }
  mt::reset();
  EXPECT_EQ(mt::snapshot().total(), 0u);
}

TEST(TelemetryCounters, SumsAcrossLiveAndExitedThreads) {
  mt::reset();
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  // Half the threads are joined before the snapshot (their blocks fold
  // into the drained aggregate), half count from still-live threads that
  // block until the snapshot is taken.
  std::vector<std::thread> exited;
  for (std::size_t i = 0; i < kThreads; ++i) {
    exited.emplace_back(
        [] { mt::count(mt::Counter::k_epoch_advance, kPerThread); });
  }
  for (auto& t : exited) t.join();

  std::atomic<bool> counted{false}, release{false};
  std::thread live([&] {
    mt::count(mt::Counter::k_epoch_advance, kPerThread);
    counted.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!counted.load()) std::this_thread::yield();

  const mt::CounterSnapshot s = mt::snapshot();
  release.store(true);
  live.join();
  if (mt::enabled()) {
    EXPECT_EQ(get(s, mt::Counter::k_epoch_advance),
              (kThreads + 1) * kPerThread);
  } else {
    EXPECT_EQ(s.total(), 0u);
  }
}

// A solo thread on an empty-then-full cycle: attempts are attributed
// exactly, and with no contention there is nothing to count as a CAS
// failure — the attribution test that catches a hook placed on a success
// path by mistake.
TEST(TelemetryAttribution, SoloRunCountsAttemptsNotFailures) {
  mt::reset();
  membq::VyukovQueue q(16);
  membq::VyukovQueue::Handle h(q);
  constexpr std::uint64_t kOps = 100;
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(h.try_enqueue(i + 1));
    ASSERT_TRUE(h.try_dequeue(out));
  }
  const mt::CounterSnapshot s = mt::snapshot();
  if (mt::enabled()) {
    EXPECT_EQ(get(s, mt::Counter::k_enq_attempt), kOps);
    EXPECT_EQ(get(s, mt::Counter::k_deq_attempt), kOps);
    EXPECT_EQ(get(s, mt::Counter::k_cas_fail), 0u);
  } else {
    EXPECT_EQ(s.total(), 0u);
  }
}

TEST(TelemetryAttribution, WorkloadDriverAttemptsCoverAllOps) {
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(batch);
    mt::reset();
    membq::VyukovQueue q(64);
    membq::workload::RunConfig cfg;
    cfg.threads = 4;
    cfg.ops_per_thread = 2000;
    cfg.mix = membq::workload::Mix::kBalanced;
    cfg.prefill = 32;
    cfg.batch = batch;
    const membq::workload::RunResult r =
        membq::workload::run_workload(q, cfg);
    const mt::CounterSnapshot s = mt::snapshot();
    if (!mt::enabled()) {
      EXPECT_EQ(s.total(), 0u);
      continue;
    }
    if (batch == 1) {
      // Every attempted op is counted exactly once (prefill enqueues
      // included), whether it succeeded or not.
      EXPECT_EQ(get(s, mt::Counter::k_enq_attempt),
                r.enq_ok + r.enq_fail + cfg.prefill);
      EXPECT_EQ(get(s, mt::Counter::k_deq_attempt), r.deq_ok + r.deq_fail);
    } else {
      // One count per call, however many items it carries or how often
      // it retries: the scalar prefill plus ⌈ops/B⌉ calls per thread.
      const std::uint64_t calls =
          (cfg.ops_per_thread + batch - 1) / batch;
      EXPECT_EQ(get(s, mt::Counter::k_enq_attempt) +
                    get(s, mt::Counter::k_deq_attempt),
                cfg.prefill + cfg.threads * calls);
    }
  }
}

// The compile-time contract the CMake option promises: enabled() is a
// constant, and an OFF build reports exactly nothing.
TEST(TelemetryContract, EnabledMatchesBuildFlag) {
#if defined(MEMBQ_TELEMETRY) && MEMBQ_TELEMETRY
  EXPECT_TRUE(mt::enabled());
#else
  EXPECT_FALSE(mt::enabled());
  mt::count(mt::Counter::k_enq_attempt, 12345);
  EXPECT_EQ(mt::snapshot().total(), 0u);
#endif
}

}  // namespace
