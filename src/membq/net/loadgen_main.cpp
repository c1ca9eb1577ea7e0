// membq_loadgen: open-loop client fleet + BENCH_server.json emitter.
//
//   membq_server --port=7171 &
//   membq_loadgen --connect=127.0.0.1:7171 --threads=4 --ops=20000
//                 [--batch=N --enq-ratio=F --rate=OPS_PER_SEC --window=N]
//
// Loadgen-specific flags are consumed here; everything else (--threads,
// --ops, --short, --out-dir, --no-json, ...) is the shared bench harness
// CLI, and the artifact is the harness's schema-versioned
// BENCH_server.json. --threads is the connection sweep: one record per
// fleet size, each with RTT percentiles and the exactly-once ledger
// verdict. Exit is nonzero when any run errors or the ledger fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/loadgen.hpp"
#include "net/protocol.hpp"

namespace {

bool parse_hostport(const std::string& s, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  host = s.substr(0, colon);
  char* end = nullptr;
  const unsigned long p = std::strtoul(s.c_str() + colon + 1, &end, 10);
  if (end == s.c_str() + colon + 1 || *end != '\0' || p == 0 || p > 65535) {
    return false;
  }
  port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  membq::net::LoadgenConfig cfg;
  bool have_connect = false;

  // Split argv: loadgen flags stay here, the rest goes to the harness
  // (which exits(2) on anything it does not know).
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--connect=")) {
      if (!parse_hostport(v, cfg.host, cfg.port)) {
        std::fprintf(stderr, "membq_loadgen: bad --connect '%s'\n", v);
        return 1;
      }
      have_connect = true;
    } else if (const char* v = val("--batch=")) {
      cfg.batch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--enq-ratio=")) {
      cfg.enq_ratio = std::strtod(v, nullptr);
    } else if (const char* v = val("--rate=")) {
      cfg.rate_ops_per_sec = std::strtod(v, nullptr);
    } else if (const char* v = val("--window=")) {
      cfg.window = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--park-us=")) {
      cfg.park_us = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = val("--drain-limit=")) {
      cfg.drain_empty_limit = std::strtoull(v, nullptr, 10);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!have_connect) {
    std::fprintf(stderr,
                 "membq_loadgen: --connect=HOST:PORT is required "
                 "(plus any bench harness flags)\n");
    return 1;
  }
  if (cfg.batch == 0 || cfg.batch > membq::net::kMaxBatch) {
    std::fprintf(stderr, "membq_loadgen: --batch out of range (1..%zu)\n",
                 membq::net::kMaxBatch);
    return 1;
  }

  membq::bench::Harness harness(
      "server", static_cast<int>(rest.size()), rest.data(),
      membq::bench::param::kThreads | membq::bench::param::kOps);
  cfg.ops_per_conn = harness.ops(10000);

  std::printf("# membq_loadgen -> %s:%u  ops/conn=%zu batch=%zu "
              "enq_ratio=%.2f rate=%.0f window=%zu\n",
              cfg.host.c_str(), static_cast<unsigned>(cfg.port),
              cfg.ops_per_conn, cfg.batch, cfg.enq_ratio,
              cfg.rate_ops_per_sec, cfg.window);

  bool ok = true;
  for (std::size_t conns : harness.threads({1, 2, 4})) {
    cfg.conns = conns;
    const membq::net::LoadgenResult r = membq::net::run_loadgen(cfg);
    const std::uint64_t ops = r.enq_acked + r.deq_received;
    const double mops =
        r.seconds > 0.0 ? static_cast<double>(ops) / 1e6 / r.seconds : 0.0;
    std::printf(
        "conns=%2zu  %8.3f Mops/s  %9.0f frames/s  acked=%llu recv=%llu "
        "would_block=%llu retries=%llu  p50=%.0fns p99=%.0fns  ledger=%s%s%s\n",
        conns, mops, r.frames_per_sec,
        static_cast<unsigned long long>(r.enq_acked),
        static_cast<unsigned long long>(r.deq_received),
        static_cast<unsigned long long>(r.would_block),
        static_cast<unsigned long long>(r.enq_retries), r.rtt.percentile(0.50),
        r.rtt.percentile(0.99), r.ledger_ok ? "OK" : "FAIL",
        r.error.empty() ? "" : "  error=", r.error.c_str());

    harness.record("loadgen/conns=" + std::to_string(conns))
        .param("transport", "tcp-loopback")
        .param("host", cfg.host)
        .param("conns", static_cast<std::uint64_t>(conns))
        .param("batch", static_cast<std::uint64_t>(cfg.batch))
        .param("ops_per_conn", static_cast<std::uint64_t>(cfg.ops_per_conn))
        .metric("mops", mops)
        .metric("frames_per_sec", r.frames_per_sec)
        .metric("frames_tx", r.frames_tx)
        .metric("frames_rx", r.frames_rx)
        .metric("enq_acked", r.enq_acked)
        .metric("deq_received", r.deq_received)
        .metric("would_block", r.would_block)
        .metric("enq_retries", r.enq_retries)
        .metric("ledger_duplicates", r.duplicates)
        .metric("ledger_lost", r.lost)
        .metric("ledger_foreign", r.foreign)
        .flag("ledger_ok", r.ledger_ok)
        .latency(r.rtt);

    if (!r.error.empty() || !r.ledger_ok) ok = false;
  }

  const int rc = harness.finish();
  if (!ok) {
    std::fprintf(stderr, "membq_loadgen: FAILED (error or ledger breach)\n");
    return 1;
  }
  return rc;
}
