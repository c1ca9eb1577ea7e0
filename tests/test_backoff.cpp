// Backoff (sync/backoff.hpp): the truncated exponential budget of one
// call, and the handle's contention estimate that sizes its first pause.
// Each test keeps its estimates in locals, as a ring Handle keeps its own.
#include "sync/backoff.hpp"

#include <cstdint>

#include <gtest/gtest.h>

namespace {

using membq::Backoff;

// The first budget a call on a handle whose estimate is `share` takes.
// The probe makes a clean call, so it folds that call into a copy.
std::uint32_t first_budget(std::uint32_t share) {
  return Backoff(share).current_spin_limit();
}

TEST(BackoffTest, SpinLimitGrowsMonotonicallyUntilCap) {
  std::uint32_t share = 0;  // a fresh handle's estimate
  Backoff b(share);
  std::uint32_t prev = b.current_spin_limit();
  EXPECT_EQ(prev, Backoff::kInitialSpins);
  for (int i = 0; i < 20; ++i) {
    b.pause();
    const std::uint32_t cur = b.current_spin_limit();
    EXPECT_GE(cur, prev);
    EXPECT_LE(cur, Backoff::kMaxSpins);
    prev = cur;
  }
  EXPECT_EQ(prev, Backoff::kMaxSpins);
}

// A run of calls that paused raises the next call's first budget toward
// kInitialSpins + kGain; a run of clean calls brings it back down to
// kInitialSpins.
TEST(BackoffTest, FirstBudgetRisesOverPausedCallsAndDecaysOverCleanOnes) {
  std::uint32_t share = 0;
  std::uint32_t prev = first_budget(share);
  EXPECT_EQ(prev, Backoff::kInitialSpins);
  for (int call = 0; call < 64; ++call) {
    Backoff b(share);
    b.pause();
  }
  const std::uint32_t risen = first_budget(share);
  EXPECT_GE(risen, Backoff::kInitialSpins + Backoff::kGain / 2);
  EXPECT_LE(risen, Backoff::kInitialSpins + Backoff::kGain);
  prev = risen;
  for (int call = 0; call < 1000; ++call) {
    { Backoff clean(share); }
    const std::uint32_t cur = first_budget(share);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
  EXPECT_EQ(prev, Backoff::kInitialSpins);
}

// Neither a high estimate nor a long call takes the budget past
// kMaxSpins, and the estimate stays a share.
TEST(BackoffTest, BudgetNeverExceedsMaxSpins) {
  std::uint32_t share = 0;
  for (int call = 0; call < 200; ++call) {
    Backoff b(share);
    for (int i = 0; i < 16; ++i) {
      ASSERT_LE(b.current_spin_limit(), Backoff::kMaxSpins);
      b.pause();
    }
    ASSERT_EQ(b.current_spin_limit(), Backoff::kMaxSpins);
  }
  EXPECT_LE(share, Backoff::kShareOne);
  EXPECT_LE(first_budget(share), Backoff::kMaxSpins);
}

// Two handles used by one thread: the one whose calls paused starts
// higher, and the one whose calls ran clean keeps kInitialSpins.
TEST(BackoffTest, TwoHandlesOnOneThreadKeepSeparateEstimates) {
  std::uint32_t contended = 0;
  std::uint32_t clean = 0;
  for (int call = 0; call < 64; ++call) {
    {
      Backoff b(contended);
      b.pause();
    }
    { Backoff b(clean); }
  }
  EXPECT_EQ(first_budget(clean), Backoff::kInitialSpins);
  EXPECT_GE(first_budget(contended),
            Backoff::kInitialSpins + Backoff::kGain / 2);
}

}  // namespace
