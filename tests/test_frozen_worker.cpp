// Lock-freedom of the ticket rings with one worker frozen mid-operation
// (tests/frozen_worker.hpp). A thread that finds a served ticket under a
// lagging counter waits up to kHelpPatience pauses per call for the
// ticket's owner before it steps the counter itself (help_advance,
// sync/counter.hpp). Only that bound keeps the rings lock-free: when the
// owner is frozen, every other call must still finish.
#include <memory>

#include <gtest/gtest.h>

#include "baselines/scq_ring.hpp"
#include "frozen_worker.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"

namespace {

using membq::frozen::expect_progress_while_one_worker_is_frozen;

TEST(FrozenWorkerTest, DistinctRingOthersCompleteOps) {
  expect_progress_while_one_worker_is_frozen(
      [] { return std::make_unique<membq::DistinctQueue>(2); });
}

TEST(FrozenWorkerTest, LlscRingOthersCompleteOps) {
  expect_progress_while_one_worker_is_frozen(
      [] { return std::make_unique<membq::LlscQueue>(2); });
}

TEST(FrozenWorkerTest, DcssRingOthersCompleteOps) {
  expect_progress_while_one_worker_is_frozen(
      [] { return std::make_unique<membq::DcssQueue>(2); });
}

// Also the regression test of scq's dequeue, which once paused behind a
// served ticket whose cell an enqueuer had refilled for the next round.
TEST(FrozenWorkerTest, ScqRingOthersCompleteOps) {
  expect_progress_while_one_worker_is_frozen(
      [] { return std::make_unique<membq::ScqRing>(2); });
}

}  // namespace
