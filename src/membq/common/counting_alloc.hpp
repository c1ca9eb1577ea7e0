// Process-global allocation accounting.
//
// The memory-overhead experiments (E2, E9) need the number of heap bytes a
// queue keeps live, without guessing at container internals. We replace the
// global operator new/delete (in counting_alloc.cpp) with versions that tag
// every block with its requested size and maintain atomic live/total
// counters. Measurement is then a delta of AllocCounter::live_bytes()
// around construction + churn of the queue under test.
#pragma once

#include <cstddef>

namespace membq {

class AllocCounter {
 public:
  // Bytes currently allocated and not yet freed (requested sizes, not
  // malloc bucket sizes).
  std::size_t live_bytes() const noexcept;

  // Cumulative bytes ever requested.
  std::size_t total_bytes() const noexcept;

  // Number of live allocations.
  std::size_t live_allocations() const noexcept;

  static AllocCounter& instance() noexcept;
};

}  // namespace membq
