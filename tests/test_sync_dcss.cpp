#include "sync/dcss.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

TEST(DcssTest, SwapsWhenBothComparandsMatch) {
  membq::DcssDomain domain(4);
  membq::DcssDomain::ThreadHandle th(domain);
  std::atomic<std::uint64_t> a{10};
  std::atomic<std::uint64_t> b{7};
  EXPECT_TRUE(th.dcss(&a, 10, 11, &b, 7));
  EXPECT_EQ(a.load(), 11u);
  EXPECT_EQ(b.load(), 7u);  // second word is compared, never written
}

TEST(DcssTest, FailsOnFirstComparandMismatch) {
  membq::DcssDomain domain(4);
  membq::DcssDomain::ThreadHandle th(domain);
  std::atomic<std::uint64_t> a{10};
  std::atomic<std::uint64_t> b{7};
  EXPECT_FALSE(th.dcss(&a, 99, 11, &b, 7));
  EXPECT_EQ(a.load(), 10u);
}

TEST(DcssTest, FailsOnSecondComparandMismatchWithoutWriting) {
  membq::DcssDomain domain(4);
  membq::DcssDomain::ThreadHandle th(domain);
  std::atomic<std::uint64_t> a{10};
  std::atomic<std::uint64_t> b{7};
  EXPECT_FALSE(th.dcss(&a, 10, 11, &b, 99));
  EXPECT_EQ(a.load(), 10u);
  EXPECT_EQ(b.load(), 7u);
}

TEST(DcssTest, ReadReturnsLogicalValue) {
  membq::DcssDomain domain(4);
  std::atomic<std::uint64_t> a{42};
  EXPECT_EQ(domain.read(&a), 42u);
}

TEST(DcssTest, DescriptorIsReusableAcrossManyOperations) {
  membq::DcssDomain domain(2);
  membq::DcssDomain::ThreadHandle th(domain);
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> ctrl{1};
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(th.dcss(&a, i, i + 1, &ctrl, 1));
  }
  EXPECT_EQ(a.load(), 10000u);
}

// The concurrent-helping test: T threads hammer DCSS increments on one
// word while the control word is valid, then the control flips and every
// further attempt must fail. Helpers constantly encounter each other's
// descriptors, exercising the marker/help path.
TEST(DcssTest, ConcurrentIncrementsRespectControlWord) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  membq::DcssDomain domain(kThreads);
  std::atomic<std::uint64_t> counter{0};
  std::atomic<std::uint64_t> epoch{0};

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      membq::DcssDomain::ThreadHandle th(domain);
      std::uint64_t done = 0;
      while (done < kPerThread) {
        const std::uint64_t cur = domain.read(&counter);
        if (th.dcss(&counter, cur, cur + 1, &epoch, 0)) ++done;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(domain.read(&counter), kThreads * kPerThread);

  // Epoch flips: every DCSS conditioned on the old epoch must now fail.
  epoch.store(1);
  membq::DcssDomain::ThreadHandle th(domain);
  const std::uint64_t frozen = domain.read(&counter);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(th.dcss(&counter, frozen, frozen + 1, &epoch, 0));
  }
  EXPECT_EQ(domain.read(&counter), frozen);
}

// Readers running against writers must only ever observe committed values
// (never markers, never torn descriptors): the counter is monotone, so
// every read must be >= the previous read.
TEST(DcssTest, ConcurrentReadersSeeMonotoneCommittedValues) {
  constexpr std::size_t kWriters = 2;
  constexpr std::uint64_t kPerWriter = 4000;
  membq::DcssDomain domain(kWriters + 2);
  std::atomic<std::uint64_t> counter{0};
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t prev = 0;
      while (!stop.load()) {
        const std::uint64_t v = domain.read(&counter);
        if (v < prev || (v & membq::DcssDomain::kMarkerBit)) {
          violation.store(true);
        }
        prev = v;
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      membq::DcssDomain::ThreadHandle th(domain);
      std::uint64_t done = 0;
      while (done < kPerWriter) {
        const std::uint64_t cur = domain.read(&counter);
        if (th.dcss(&counter, cur, cur + 1, &epoch, 0)) ++done;
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(domain.read(&counter), kWriters * kPerWriter);
}

// The first CAS that replaces an owner's marker decides its DCSS. An owner
// whose resolution CAS loses to a helper's must return the verdict that
// helper resolved with, not its own *a2 read. Readers here both help (the
// read() of the counter) and flip the control word between reads, so a
// helper's *a2 read and the owner's can disagree: an owner that trusted
// its own would count an increment the counter never received, or miss
// one it did. Owners lose that race only about once per round, so rounds
// repeat until a one-second budget is spent (at least one round; a
// sanitizer build, many times slower, runs few).
TEST(DcssTest, OwnerThatLosesItsResolutionReturnsTheHelpersVerdict) {
  constexpr std::size_t kOwners = 3;
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kPerOwner = 200000;  // DCSS attempts per round
  constexpr int kMaxRounds = 25;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  membq::DcssDomain domain(kOwners);
  int round = 0;
  do {
    std::atomic<std::uint64_t> counter{0};
    std::atomic<std::uint64_t> ctrl{0};
    std::atomic<std::uint64_t> wins{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        while (!stop.load()) {
          domain.read(&counter);
          ctrl.fetch_xor(1);
        }
      });
    }
    std::vector<std::thread> owners;
    for (std::size_t t = 0; t < kOwners; ++t) {
      owners.emplace_back([&] {
        membq::DcssDomain::ThreadHandle th(domain);
        std::uint64_t won = 0;
        for (std::uint64_t i = 0; i < kPerOwner; ++i) {
          const std::uint64_t cur = domain.read(&counter);
          if (th.dcss(&counter, cur, cur + 1, &ctrl, 0)) ++won;
        }
        wins.fetch_add(won);
      });
    }
    for (auto& o : owners) o.join();
    stop.store(true);
    for (auto& r : readers) r.join();
    EXPECT_EQ(domain.read(&counter), wins.load()) << "round " << round;
  } while (++round < kMaxRounds &&
           std::chrono::steady_clock::now() < deadline);
}

TEST(DcssTest, RejectsDomainsBeyondMarkerSlotField) {
  // The marker encodes the slot in 15 bits; larger domains would alias
  // descriptor slots and must be refused up front.
  EXPECT_THROW(membq::DcssDomain(membq::DcssDomain::kMaxSlots + 1),
               std::invalid_argument);
  membq::DcssDomain ok(8);  // normal sizes still construct
  EXPECT_EQ(ok.max_threads(), 8u);
}

TEST(DcssTest, HandleSlotsAreRecycled) {
  membq::DcssDomain domain(2);
  for (int i = 0; i < 10; ++i) {
    membq::DcssDomain::ThreadHandle a(domain);
    membq::DcssDomain::ThreadHandle b(domain);
    // Two live handles fill the domain; destruction must free the slots
    // for the next iteration.
  }
  SUCCEED();
}

}  // namespace
