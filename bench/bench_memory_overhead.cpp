// E3-E6, E9 — THE central table of the reproduction: measured memory
// overhead for every queue across capacity and thread sweeps, with the
// inferred Θ-class next to the paper's claimed class.
//
// Paper's claims (who is in which class):
//   distinct(L2), llsc(L3, algorithmic), mutex, spsc     -> Θ(1)
//   dcss(L4), optimal(L5)                                -> Θ(T)
//   vyukov, scq                                          -> Θ(C)
//   michael-scott                                        -> Θ(n) ~ Θ(C) full
//   segment(L1)                                          -> Θ(C/K + T·K)
//
// We do not match absolute bytes with anyone — the *shape* (flat vs linear,
// and in which parameter) is the reproduction target.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/overhead.hpp"
#include "workload/registry.hpp"

namespace {

struct Claim {
  const char* queue;
  const char* claimed;
};

constexpr Claim kClaims[] = {
    {"optimal(L5)", "Theta(T)"},    {"distinct(L2)", "Theta(1)"},
    {"llsc(L3)", "Theta(1)"},       {"dcss(L4)", "Theta(T)"},
    {"segment(L1)", "Theta(C/K+TK)"}, {"vyukov(perslot-seq)", "Theta(C)"},
    {"scq(faa-ring)", "Theta(C)"},  {"michael-scott", "Theta(n)"},
    {"mutex(seq+lock)", "Theta(1)"},
    // Lock-free L1 keeps the paper's composite class; the SMR backlog is
    // reported in its own column and excluded from the inference.
    {"segment(L1,ebr)", "Theta(C/K+TK)"},
    {"segment(L1,hp)", "Theta(C/K+TK)"},
    // Lock-free L5 keeps the Θ(T) class: one announcement record per
    // slot and the DCSS descriptor pool are Θ(T), and nothing else is
    // allocated. Records are recycled by sequence, never retired, so its
    // retired_B column is 0 — there is no backlog left out of the
    // verdict. The two rows are registry spellings of one class.
    {"optimal(L5,lf,ebr)", "Theta(T)"},
    {"optimal(L5,lf,hp)", "Theta(T)"},
    // Sharded rows keep the base row's class: N is a constant, so N
    // shards of capacity C/N preserve the shape (N×Θ(C/N) = Θ(C); the
    // segment base keeps its composite class, reported informationally).
    {"sharded(vyukov,4)", "Theta(C)"},
    {"sharded(segment-ebr,4)", "Theta(C/K+TK)"},
};

const char* claimed_for(const std::string& name) {
  for (const auto& c : kClaims) {
    if (name == c.queue) return c.claimed;
  }
  return "?";
}

void record_rows(membq::bench::Harness& h, const char* sweep,
                 const std::vector<membq::metrics::OverheadRow>& rows) {
  for (const auto& r : rows) {
    h.record(std::string("e9/") + sweep + "/" + r.queue +
             "/C=" + std::to_string(r.capacity) +
             "/T=" + std::to_string(r.threads))
        .param("queue", r.queue)
        .param("capacity", static_cast<std::uint64_t>(r.capacity))
        .param("threads", static_cast<std::uint64_t>(r.threads))
        .metric("overhead_bytes", static_cast<std::uint64_t>(r.overhead_bytes))
        .metric("aux_bytes", static_cast<std::uint64_t>(r.aux_bytes))
        .metric("retired_bytes",
                static_cast<std::uint64_t>(r.retired_bytes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using membq::metrics::OverheadRow;
  membq::bench::Harness harness("memory_overhead", argc, argv);

  // Short mode trims the sweep extremes; the surviving points still span
  // enough range for the Θ-class inference to separate flat from linear.
  const std::vector<std::size_t> c_sweep_points =
      harness.short_mode() ? std::vector<std::size_t>{64, 1024, 4096}
                           : std::vector<std::size_t>{64, 256, 1024, 4096,
                                                      16384};
  const std::vector<std::size_t> t_sweep_points =
      harness.short_mode() ? std::vector<std::size_t>{2, 8, 32}
                           : std::vector<std::size_t>{2, 4, 8, 16, 32, 64};

  // One measurement per (queue, point); the printed tables AND the verdict
  // classification below both read from these vectors.
  const auto queues = membq::workload::all_queues(/*max_threads=*/64);
  std::vector<std::vector<OverheadRow>> c_sweeps, t_sweeps;
  for (const auto& q : queues) {
    std::vector<OverheadRow> cs, ts;
    for (std::size_t c : c_sweep_points) cs.push_back(q.overhead(c, 8));
    for (std::size_t t : t_sweep_points) ts.push_back(q.overhead(1024, t));
    c_sweeps.push_back(std::move(cs));
    t_sweeps.push_back(std::move(ts));
  }

  std::printf("=== E9: memory overhead, capacity sweep (T = 8) ===\n");
  std::vector<OverheadRow> all_rows;
  for (const auto& rows : c_sweeps) {
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  }
  std::printf("%s\n", membq::metrics::format_table(all_rows).c_str());
  record_rows(harness, "c-sweep", all_rows);

  std::printf("=== E9: memory overhead, thread sweep (C = 1024) ===\n");
  all_rows.clear();
  for (const auto& rows : t_sweeps) {
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  }
  std::printf("%s\n", membq::metrics::format_table(all_rows).c_str());
  record_rows(harness, "t-sweep", all_rows);

  std::printf("=== E9 verdicts: inferred class vs paper claim ===\n");
  std::printf("%-24s %-14s %-14s %s\n", "queue", "measured", "claimed",
              "match");
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const auto cls = membq::metrics::classify(c_sweeps[i], t_sweeps[i]);
    const std::string measured = membq::metrics::to_string(cls);
    const std::string claimed = claimed_for(queues[i].name);
    // Segment queue's composite class and MS's Θ(n) don't map onto the
    // four simple classes; report them informationally.
    const bool informational =
        claimed == "Theta(C/K+TK)" || claimed == "Theta(n)";
    const bool match = measured == claimed;
    std::printf("%-24s %-14s %-14s %s\n", queues[i].name.c_str(),
                measured.c_str(), claimed.c_str(),
                informational ? "(composite)" : (match ? "OK" : "MISMATCH"));
    harness.record("e9/verdict/" + queues[i].name)
        .param("queue", queues[i].name)
        .param("measured", measured)
        .param("claimed", claimed)
        .flag("informational", informational)
        .flag("match", informational || match);
  }
  std::printf(
      "\nNote: llsc(L3) reports its ALGORITHMIC overhead (the paper's model"
      "\ncharges hardware LL/SC nothing); the software emulation surcharge"
      "\nof 8 bytes/cell is listed separately in the tables above.\n");
  return harness.finish();
}
