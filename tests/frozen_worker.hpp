// Lock-freedom with one worker frozen mid-operation, for any queue whose
// Handle has try_enqueue_bulk / try_dequeue_bulk.
//
// Four workers alternate enqueue and dequeue calls of 1–8 items on a queue
// of capacity 2, so every other call wraps the ring and a freeze can land
// between two cells of one batch. The main thread freezes one worker at a
// time, at arbitrary points (mid-claim, mid-advance, mid-wait), by a
// signal whose handler spins on a flag. Every freeze must see the other
// workers complete a call in its window: a queue in which threads wait on
// one another without a bound stalls as soon as the frozen worker is the
// one they wait for.
//
// A window is judged only if the other workers ran in it: their summed
// thread CPU time must grow by at least half the window's wall time. A
// window without that (a pause of the whole host, a scheduling gap) is
// void, and it is retried like a signal whose delivery the kernel
// deferred. Afterwards, the count and sum of the values enqueued must
// equal those dequeued plus those left in the queue.
#pragma once

#include <pthread.h>
#include <signal.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sync/backoff.hpp"

namespace membq::frozen {

inline std::atomic<bool> g_hold{false};
inline std::atomic<int> g_parked{0};

inline void freeze_handler(int) {
  g_parked.store(1, std::memory_order_release);
  while (g_hold.load(std::memory_order_acquire)) detail::cpu_relax();
  g_parked.store(0, std::memory_order_release);
}

// Polls `g_parked` until it equals `want`, for at most 1 s: a signal the
// kernel defers must not hang the test.
inline bool await_parked(int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (g_parked.load(std::memory_order_acquire) != want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

inline std::int64_t thread_cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// `make_queue()` returns a std::unique_ptr to a queue of capacity 2 with
// room for five handles (four workers, then one drain).
template <class Factory>
void expect_progress_while_one_worker_is_frozen(Factory make_queue) {
  constexpr int kWorkers = 4;
  constexpr int kFreezes = 100;
  constexpr auto kWindow = std::chrono::milliseconds(20);
  const auto q = make_queue();
  using Queue = typename decltype(q)::element_type;

  struct sigaction sa = {}, old = {};
  sa.sa_handler = freeze_handler;
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  struct alignas(64) Worker {
    std::atomic<std::uint64_t> ops{0};  // completed calls, either outcome
    std::uint64_t enq_ok = 0, deq_ok = 0, enq_sum = 0, deq_sum = 0;
  };
  std::vector<Worker> workers(kWorkers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      typename Queue::Handle h(*q);
      Worker& me = workers[w];
      std::uint64_t buf[8];
      std::uint64_t next = static_cast<std::uint64_t>(w) << 32;
      std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (w + 1);
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        // Batches of 1–8 items (at most two fit), so a freeze can land
        // between two cell claims of one call.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const std::size_t n = 1 + rng % 8;
        if ((i & 1) == 0) {
          for (std::size_t j = 0; j < n; ++j) buf[j] = next + j;
          const std::size_t got = h.try_enqueue_bulk(buf, n);
          for (std::size_t j = 0; j < got; ++j) me.enq_sum += buf[j];
          me.enq_ok += got;
          next += got;
        } else {
          const std::size_t got = h.try_dequeue_bulk(buf, n);
          for (std::size_t j = 0; j < got; ++j) me.deq_sum += buf[j];
          me.deq_ok += got;
        }
        me.ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<clockid_t> clocks(kWorkers);
  bool have_clocks = true;
  for (int w = 0; w < kWorkers; ++w) {
    have_clocks &=
        pthread_getcpuclockid(threads[w].native_handle(), &clocks[w]) == 0;
  }
  const auto total_ops = [&] {
    std::uint64_t n = 0;
    for (auto& wk : workers) n += wk.ops.load(std::memory_order_relaxed);
    return n;
  };
  const auto others_cpu_ns = [&](int victim) {
    std::int64_t ns = 0;
    for (int w = 0; w < kWorkers; ++w) {
      if (w != victim) ns += thread_cpu_ns(clocks[w]);
    }
    return ns;
  };
  while (total_ops() < 1000) std::this_thread::yield();

  // Failures below break out of the loop instead of returning, so the
  // workers are always stopped and joined.
  if (!have_clocks) ADD_FAILURE() << "pthread_getcpuclockid failed";
  int frozen = 0, deferred = 0, voided = 0, stalled = 0;
  std::uint64_t x = 12345;
  for (int attempt = 0;
       have_clocks && frozen < kFreezes && attempt < 2 * kFreezes;
       ++attempt) {
    const int victim = attempt % kWorkers;
    g_hold.store(true, std::memory_order_release);
    if (pthread_kill(threads[victim].native_handle(), SIGUSR1) != 0) {
      ADD_FAILURE() << "pthread_kill failed";
      g_hold.store(false, std::memory_order_release);
      break;
    }
    if (!await_parked(1)) {
      // Deferred delivery: release the flag so the late handler returns
      // at once, and try again.
      g_hold.store(false, std::memory_order_release);
      ++deferred;
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t cpu_before = others_cpu_ns(victim);
    const std::uint64_t before = total_ops();
    std::this_thread::sleep_for(kWindow);
    const std::uint64_t during = total_ops() - before;
    const std::int64_t cpu = others_cpu_ns(victim) - cpu_before;
    const std::int64_t wall =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    g_hold.store(false, std::memory_order_release);
    if (2 * cpu < wall) {
      ++voided;  // the others did not run: nothing to judge, try again
    } else {
      ++frozen;
      if (during == 0) ++stalled;
    }
    if (!await_parked(0)) {
      ADD_FAILURE() << "the frozen worker never left the handler";
      break;
    }
    // Resume for a pseudo-random 0–2 ms, so the next freeze lands at an
    // arbitrary point of some operation.
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::this_thread::sleep_for(std::chrono::microseconds((x >> 33) % 2000));
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);

  std::printf("[ frozen   ] %s: %d judged, %d deferred, %d void, %d stalled\n",
              Queue::kName, frozen, deferred, voided, stalled);
  EXPECT_EQ(frozen, kFreezes) << deferred << " freezes were deferred and "
                              << voided << " windows void";
  EXPECT_EQ(stalled, 0) << "of " << frozen
                        << " judged freezes, these saw no other worker "
                           "complete an operation";

  // Conservation: everything dequeued was enqueued, the rest is still in.
  std::uint64_t enq_ok = 0, deq_ok = 0, enq_sum = 0, deq_sum = 0;
  for (auto& wk : workers) {
    enq_ok += wk.enq_ok;
    deq_ok += wk.deq_ok;
    enq_sum += wk.enq_sum;
    deq_sum += wk.deq_sum;
  }
  typename Queue::Handle h(*q);
  std::uint64_t out = 0;
  while (h.try_dequeue(out)) {
    ++deq_ok;
    deq_sum += out;
  }
  EXPECT_EQ(enq_ok, deq_ok);
  EXPECT_EQ(enq_sum, deq_sum);
}

}  // namespace membq::frozen
