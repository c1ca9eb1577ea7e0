#include "metrics/overhead.hpp"

#include <cstdio>

namespace membq {
namespace metrics {

namespace {

// Growth test between the sweep endpoints. A queue can carry a large
// constant (or a term in the *other* parameter) under a genuine linear
// term, so a ratio test would drown the signal; instead require the
// absolute increase to be both non-trivial (above allocator jitter) and a
// visible fraction of the final overhead.
bool grows(double value0, double value1) {
  const double delta = value1 - value0;
  return delta >= 256.0 && delta >= 0.15 * value1;
}

}  // namespace

std::string to_string(ThetaClass cls) {
  switch (cls) {
    case ThetaClass::kOne:
      return "Theta(1)";
    case ThetaClass::kT:
      return "Theta(T)";
    case ThetaClass::kC:
      return "Theta(C)";
    case ThetaClass::kCT:
      return "Theta(C+T)";
  }
  return "?";
}

ThetaClass classify(const std::vector<OverheadRow>& capacity_sweep,
                    const std::vector<OverheadRow>& thread_sweep) {
  bool grows_c = false, grows_t = false;
  if (capacity_sweep.size() >= 2) {
    grows_c = grows(
        static_cast<double>(capacity_sweep.front().overhead_bytes),
        static_cast<double>(capacity_sweep.back().overhead_bytes));
  }
  if (thread_sweep.size() >= 2) {
    grows_t =
        grows(static_cast<double>(thread_sweep.front().overhead_bytes),
              static_cast<double>(thread_sweep.back().overhead_bytes));
  }
  if (grows_c && grows_t) return ThetaClass::kCT;
  if (grows_c) return ThetaClass::kC;
  if (grows_t) return ThetaClass::kT;
  return ThetaClass::kOne;
}

std::string format_table(const std::vector<OverheadRow>& rows) {
  std::string out;
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "%-24s %8s %6s %14s %14s %12s\n",
                        "queue", "C", "T", "overhead_B", "aux_B(emul)",
                        "retired_B");
  out.append(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  for (const OverheadRow& r : rows) {
    n = std::snprintf(buf, sizeof(buf), "%-24s %8zu %6zu %14zu %14zu %12zu\n",
                      r.queue.c_str(), r.capacity, r.threads,
                      r.overhead_bytes, r.aux_bytes, r.retired_bytes);
    out.append(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  }
  return out;
}

}  // namespace metrics
}  // namespace membq
