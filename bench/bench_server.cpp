// E17 — the queue behind a socket: an in-process membq_server on an
// ephemeral loopback port, driven by the loadgen fleet. Two measured
// shapes per run:
//
//   * serve/...  — ample capacity, closed-loop fleet sweep over --threads:
//                  socket-RTT percentiles and Mops/s for the same queue
//                  the in-memory benches measure directly.
//   * backpressure/... — a deliberately undersized queue (capacity 8) with
//                  an enqueue-heavy fleet: WOULD_BLOCK must fire and the
//                  loadgen retry path must still land every token
//                  exactly once.
//
// --queue=NAME (pre-filtered here, any registry row) selects the server
// queue; everything else is the shared harness CLI. Every record carries
// "mops" so the baseline gate applies, plus the ledger verdict flags —
// the bench FAILS (exit 1) if exactly-once is breached.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "telemetry/counters.hpp"

namespace {

struct RunOutcome {
  membq::net::LoadgenResult client;
  membq::net::ServerStats server;
  // net_batch_items / net_frames_rx over this run (telemetry delta; 0
  // when the build has telemetry off). The satellite fix: the counter is
  // a running SUM of items, so only this ratio is a batch size.
  double mean_batch = 0.0;
};

RunOutcome serve_once(const membq::net::ServerConfig& scfg,
                      membq::net::LoadgenConfig lcfg) {
  const membq::telemetry::CounterSnapshot before = membq::telemetry::snapshot();
  membq::net::Server server(scfg);
  server.start();
  lcfg.host = "127.0.0.1";
  lcfg.port = server.port();
  RunOutcome out;
  out.client = membq::net::run_loadgen(lcfg);
  server.stop_and_join();
  out.server = server.stats();
  const membq::telemetry::CounterSnapshot d =
      membq::telemetry::snapshot().delta_since(before);
  const std::uint64_t frames =
      d[membq::telemetry::Counter::k_net_frames_rx];
  if (frames > 0) {
    out.mean_batch =
        static_cast<double>(
            d[membq::telemetry::Counter::k_net_batch_items]) /
        static_cast<double>(frames);
  }
  return out;
}

void stamp(membq::bench::Record& rec, const RunOutcome& o,
           const membq::net::ServerConfig& scfg,
           const membq::net::LoadgenConfig& lcfg) {
  const std::uint64_t ops = o.client.enq_acked + o.client.deq_received;
  const double mops = o.client.seconds > 0.0
                          ? static_cast<double>(ops) / 1e6 / o.client.seconds
                          : 0.0;
  rec.param("queue", scfg.queue)
      .param("capacity", static_cast<std::uint64_t>(scfg.capacity))
      .param("workers", static_cast<std::uint64_t>(scfg.workers))
      .param("conns", static_cast<std::uint64_t>(lcfg.conns))
      .param("batch", static_cast<std::uint64_t>(lcfg.batch))
      .metric("mops", mops)
      .metric("mean_batch", o.mean_batch)
      .metric("frames_per_sec", o.client.frames_per_sec)
      .metric("enq_acked", o.client.enq_acked)
      .metric("deq_received", o.client.deq_received)
      .metric("would_block", o.client.would_block)
      .metric("enq_retries", o.client.enq_retries)
      .metric("ledger_duplicates", o.client.duplicates)
      .metric("ledger_lost", o.client.lost)
      .metric("ledger_foreign", o.client.foreign)
      .metric("server_ledger_violations", o.server.ledger_violations)
      .metric("server_ledger_outstanding", o.server.ledger_outstanding)
      .flag("ledger_ok", o.client.ledger_ok)
      .latency(o.client.rtt);
}

bool print_row(const char* label, const RunOutcome& o) {
  const std::uint64_t ops = o.client.enq_acked + o.client.deq_received;
  const double mops = o.client.seconds > 0.0
                          ? static_cast<double>(ops) / 1e6 / o.client.seconds
                          : 0.0;
  const bool ok = o.client.ledger_ok && o.client.error.empty() &&
                  o.server.ledger_violations == 0;
  std::printf(
      "%-28s %8.3f Mops/s  p50=%7.0fns p99=%7.0fns  mean_batch=%.1f "
      "would_block=%llu retries=%llu  ledger=%s%s%s\n",
      label, mops, o.client.rtt.percentile(0.50), o.client.rtt.percentile(0.99),
      o.mean_batch, static_cast<unsigned long long>(o.client.would_block),
      static_cast<unsigned long long>(o.client.enq_retries), ok ? "OK" : "FAIL",
      o.client.error.empty() ? "" : "  error=", o.client.error.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // --queue= is ours; the harness owns the rest (and exits on typos).
  std::string queue = "sharded(vyukov,4)";
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--queue=", 8) == 0) {
      queue = argv[i] + 8;
    } else {
      rest.push_back(argv[i]);
    }
  }
  membq::bench::Harness harness("server", static_cast<int>(rest.size()),
                                rest.data());

  const std::size_t kCapacity = harness.capacity(1024);
  const std::size_t kOps = harness.ops(8000);

  membq::net::ServerConfig scfg;
  scfg.queue = queue;
  scfg.capacity = kCapacity;
  scfg.workers = 2;
  scfg.ledger = true;

  membq::net::LoadgenConfig lcfg;
  lcfg.ops_per_conn = kOps;
  lcfg.batch = harness.batch(8);

  std::printf("=== E17: served queue '%s' over loopback (C = %zu) ===\n",
              queue.c_str(), kCapacity);
  bool ok = true;

  for (std::size_t conns : harness.threads({1, 2, 4})) {
    lcfg.conns = conns;
    const RunOutcome o = serve_once(scfg, lcfg);
    const std::string label = "serve/" + queue + "/conns=" +
                              std::to_string(conns);
    ok &= print_row(label.c_str(), o);
    stamp(harness.record(label), o, scfg, lcfg);
  }

  // Batch axis: per-item (B=1) vs batched (B=--batch) frames against the
  // same server — the wire cost per frame is fixed, so the batched row
  // shows the bulk path's amortization end to end (and its mean_batch
  // metric must match the loadgen's configured batch).
  for (const std::size_t b : {std::size_t{1}, harness.batch(8)}) {
    if (b == 1 && harness.batch(8) == 1) continue;  // no duplicate B=1 row
    membq::net::LoadgenConfig blc = lcfg;
    blc.conns = 2;
    blc.batch = b;
    const RunOutcome o = serve_once(scfg, blc);
    const std::string label = "batch/" + queue + "/B=" + std::to_string(b);
    ok &= print_row(label.c_str(), o);
    stamp(harness.record(label), o, scfg, blc);
  }

  // Backpressure shape: capacity 8 against an enqueue-heavy fleet. The
  // point is not throughput — it is that WOULD_BLOCK fires and the retry
  // path still lands every token exactly once.
  {
    membq::net::ServerConfig bp = scfg;
    bp.capacity = 8;
    membq::net::LoadgenConfig blc = lcfg;
    blc.conns = 2;
    blc.ops_per_conn = kOps / 4;
    blc.enq_ratio = 0.9;
    blc.window = 4;
    const RunOutcome o = serve_once(bp, blc);
    const std::string label = "backpressure/" + queue + "/cap=8";
    ok &= print_row(label.c_str(), o);
    if (o.client.would_block == 0) {
      std::printf("backpressure: WOULD_BLOCK never fired (capacity too big?)\n");
      ok = false;
    }
    stamp(harness.record(label), o, bp, blc);
  }

  const int rc = harness.finish();
  if (!ok) {
    std::fprintf(stderr, "bench_server: FAILED (ledger or backpressure)\n");
    return 1;
  }
  return rc;
}
