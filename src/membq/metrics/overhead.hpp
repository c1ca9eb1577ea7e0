// Memory-overhead measurement rows and Θ-class inference.
//
// One OverheadRow per (queue, capacity, threads) point: overhead_bytes is
// the measured live heap minus the C mandatory element words (and minus
// aux_bytes, the separately-reported emulation surcharge — nonzero only
// for the software LL/SC queue). classify() looks at a capacity sweep and
// a thread sweep and infers which parameter the overhead grows in, which
// is the reproduction target for the paper's central table (E9).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace membq {
namespace metrics {

struct OverheadRow {
  std::string queue;
  std::size_t capacity = 0;
  std::size_t threads = 0;
  std::size_t overhead_bytes = 0;  // algorithmic overhead
  std::size_t aux_bytes = 0;       // e.g. LL/SC software-emulation stamps
  // Retired-but-unreclaimed bytes parked in an SMR domain at measurement
  // time (lock-free queues only). Reported separately so a reclamation
  // backlog never masquerades as live algorithmic overhead in the Θ-class
  // inference.
  std::size_t retired_bytes = 0;
};

enum class ThetaClass {
  kOne,  // Θ(1): flat in both sweeps
  kT,    // Θ(T): grows with the thread sweep only
  kC,    // Θ(C): grows with the capacity sweep only
  kCT,   // grows with both
};

std::string to_string(ThetaClass cls);

// Infer the growth class from a capacity sweep (fixed T) and a thread
// sweep (fixed C). Growth is judged on the absolute overhead increase
// between the first and last row of each sweep (see overhead.cpp).
ThetaClass classify(const std::vector<OverheadRow>& capacity_sweep,
                    const std::vector<OverheadRow>& thread_sweep);

// Fixed-width table of rows, with a header line.
std::string format_table(const std::vector<OverheadRow>& rows);

}  // namespace metrics
}  // namespace membq
