#include "workload/driver.hpp"

#include <algorithm>
#include <cstdio>

namespace membq {
namespace workload {

const char* to_string(Mix mix) noexcept {
  switch (mix) {
    case Mix::kBalanced:
      return "balanced";
    case Mix::kEnqueueHeavy:
      return "enq-heavy";
    case Mix::kDequeueHeavy:
      return "deq-heavy";
    case Mix::kPairwise:
      return "pairwise";
    case Mix::kBursty:
      return "bursty";
  }
  return "?";
}

namespace detail {

void finalize(RunResult& r, std::vector<ThreadStats>& stats) {
  std::uint64_t first_start = ~std::uint64_t{0};
  std::uint64_t last_end = 0;
  for (const ThreadStats& st : stats) {
    r.enq_ok += st.enq_ok;
    r.enq_fail += st.enq_fail;
    r.deq_ok += st.deq_ok;
    r.deq_fail += st.deq_fail;
    first_start = std::min(first_start, st.start_ns);
    last_end = std::max(last_end, st.end_ns);
    r.latency.merge(st.latency);
  }
  const double seconds =
      last_end > first_start
          ? static_cast<double>(last_end - first_start) / 1e9
          : 0.0;
  r.seconds = seconds;
  const double completed = static_cast<double>(r.enq_ok + r.deq_ok);
  r.mops = seconds > 0.0 ? completed / seconds / 1e6 : 0.0;
  if (r.latency_sampled && r.latency.count() > 0) {
    r.p50_ns = r.latency.percentile(0.50);
    r.p99_ns = r.latency.percentile(0.99);
    r.p999_ns = r.latency.percentile(0.999);
    r.max_ns = static_cast<double>(r.latency.max());
  }
}

}  // namespace detail

std::string RunResult::format() const {
  char buf[256];
  int n = std::snprintf(
      buf, sizeof(buf),
      "%-24s T=%-3zu %-9s %8.2f Mops/s  enq %llu/%llu  deq %llu/%llu",
      queue.c_str(), threads, to_string(mix), mops,
      static_cast<unsigned long long>(enq_ok),
      static_cast<unsigned long long>(enq_fail),
      static_cast<unsigned long long>(deq_ok),
      static_cast<unsigned long long>(deq_fail));
  std::string out(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  if (latency_sampled) {
    n = std::snprintf(buf, sizeof(buf),
                      "  | p50 %.0fns p99 %.0fns p999 %.0fns max %.0fns",
                      p50_ns, p99_ns, p999_ns, max_ns);
    out.append(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  }
  return out;
}

}  // namespace workload
}  // namespace membq
