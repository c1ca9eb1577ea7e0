#include "sync/backoff.hpp"

#include <gtest/gtest.h>

namespace {

TEST(BackoffTest, SpinLimitGrowsMonotonicallyUntilCap) {
  membq::Backoff b;
  std::uint32_t prev = b.current_spin_limit();
  EXPECT_EQ(prev, membq::Backoff::kInitialSpins);
  for (int i = 0; i < 20; ++i) {
    b.pause();
    const std::uint32_t cur = b.current_spin_limit();
    EXPECT_GE(cur, prev);
    EXPECT_LE(cur, membq::Backoff::kMaxSpins);
    prev = cur;
  }
  EXPECT_EQ(prev, membq::Backoff::kMaxSpins);
}

TEST(BackoffTest, ResetRestoresInitialBudget) {
  membq::Backoff b;
  for (int i = 0; i < 6; ++i) b.pause();
  EXPECT_GT(b.current_spin_limit(), membq::Backoff::kInitialSpins);
  b.reset();
  EXPECT_EQ(b.current_spin_limit(), membq::Backoff::kInitialSpins);
}

}  // namespace
