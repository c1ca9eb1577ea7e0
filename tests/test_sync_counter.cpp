// help_advance (sync/counter.hpp): the patient one-step help of the
// ticket rings. Single-threaded except the last test.
#include <atomic>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "sync/backoff.hpp"
#include "sync/counter.hpp"
#include "sync/memory_order.hpp"

namespace {

using membq::help_advance;
using membq::kHelpPatience;
using membq::RingOrders;

constexpr std::uint64_t kSeen = 1000;

TEST(CounterHelpTest, CounterPastSeenIsLeftAloneAndSpendsNoBudget) {
  std::atomic<std::uint64_t> c{kSeen + 3};
  std::uint32_t budget = kHelpPatience;
  help_advance<RingOrders>(c, kSeen, budget);
  EXPECT_EQ(c.load(), kSeen + 3);
  EXPECT_EQ(budget, kHelpPatience);
}

TEST(CounterHelpTest, ParkedCounterStepsByOneOnceTheBudgetIsSpent) {
  std::atomic<std::uint64_t> c{kSeen};
  std::uint32_t budget = kHelpPatience;
  help_advance<RingOrders>(c, kSeen, budget);
  EXPECT_EQ(c.load(), kSeen + 1);
  EXPECT_EQ(budget, 0u);
}

TEST(CounterHelpTest, SpentBudgetStepsAtOnce) {
  std::atomic<std::uint64_t> c{kSeen};
  std::uint32_t budget = 0;
  help_advance<RingOrders>(c, kSeen, budget);
  EXPECT_EQ(c.load(), kSeen + 1);
  EXPECT_EQ(budget, 0u);
  // The rest of a call helps at once too: the next step spends nothing.
  help_advance<RingOrders>(c, kSeen + 1, budget);
  EXPECT_EQ(c.load(), kSeen + 2);
}

// A second thread moves the counter from kSeen to kSeen+k while the
// helper waits. Its CAS from kSeen succeeds only if the helper has not
// stepped first, and the helper must then leave kSeen+k alone. The
// helper's budget is large, so the wait outlasts any scheduling delay of
// the mover.
TEST(CounterHelpTest, CounterMovedDuringTheWaitStaysWhereTheMoverLeftIt) {
  constexpr std::uint64_t kMove = 5;
  constexpr std::uint32_t kBudget = std::uint32_t{1} << 30;
  std::atomic<std::uint64_t> c{kSeen};
  std::atomic<bool> waiting{false};
  bool moved = false;
  std::thread mover([&] {
    while (!waiting.load(std::memory_order_acquire)) std::this_thread::yield();
    std::uint64_t expected = kSeen;
    moved = c.compare_exchange_strong(expected, kSeen + kMove);
  });
  std::uint32_t budget = kBudget;
  waiting.store(true, std::memory_order_release);
  help_advance<RingOrders>(c, kSeen, budget);
  mover.join();
  EXPECT_TRUE(moved) << "the helper stepped the counter before the mover";
  EXPECT_EQ(c.load(), kSeen + kMove);
}

}  // namespace
