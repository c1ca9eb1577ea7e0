// membq_loadgen: open-loop client fleet for membq_server.
//
//   membq_server --port=7171 &
//   membq_loadgen --connect=127.0.0.1:7171 --threads=4 --ops=20000
//                 [--batch=N --enq-ratio=F --rate=OPS_PER_SEC --window=N]
//                 [--park-us=N --drain-limit=N]
//
// --threads=LIST is the connection sweep (default 1,2,4) and --ops=N the
// run-phase frames per connection (default 10000). Each fleet size prints
// one line: rate, acked and received tokens, WOULD_BLOCK answers, RTT
// percentiles and the exactly-once ledger verdict. Every value must parse
// completely and lie in its range (--batch 1..kMaxBatch, --enq-ratio 0..1,
// --rate ≥ 0, --window, --threads and --ops ≥ 1, --park-us and
// --drain-limit ≥ 0); all are checked before any connection. Exit 1 on a
// run error, a ledger breach or a bad --connect; 2 on an unknown flag or
// a malformed or out-of-range value.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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

// A decimal integer in [lo, hi]: digits only, no sign, space or suffix.
template <class T>
bool parse_uint(const char* s, T& out, T lo = 0,
                T hi = std::numeric_limits<T>::max()) {
  if (std::isdigit(static_cast<unsigned char>(*s)) == 0) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  out = static_cast<T>(v);
  return true;
}

bool parse_count(const char* s, std::size_t& out) {
  return parse_uint(s, out, std::size_t{1});
}

// A finite decimal real in [lo, hi], with no sign, space or suffix.
bool parse_real(const char* s, double lo, double hi, double& out) {
  if (std::isdigit(static_cast<unsigned char>(*s)) == 0 && *s != '.') {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < lo || v > hi) {
    return false;
  }
  out = v;
  return true;
}

// "1,2,4": one or more positive counts.
bool parse_count_list(const char* s, std::vector<std::size_t>& out) {
  out.clear();
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      std::size_t v = 0;
      if (!parse_count(token.c_str(), v)) return false;
      out.push_back(v);
      token.clear();
      if (*p == '\0') return true;
    } else {
      token += *p;
    }
  }
}

[[noreturn]] void usage_and_exit(const char* bad) {
  std::fprintf(stderr,
               "membq_loadgen: bad argument '%s'\n"
               "usage: membq_loadgen --connect=HOST:PORT [--threads=1,2,4] "
               "[--ops=N] [--batch=N]\n"
               "       [--enq-ratio=F] [--rate=OPS_PER_SEC] [--window=N] "
               "[--park-us=N] [--drain-limit=N]\n",
               bad);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  membq::net::LoadgenConfig cfg;
  bool have_connect = false;
  std::vector<std::size_t> fleet_sizes{1, 2, 4};

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
    } else if (const char* v = val("--threads=")) {
      if (!parse_count_list(v, fleet_sizes)) usage_and_exit(argv[i]);
    } else if (const char* v = val("--ops=")) {
      if (!parse_count(v, cfg.ops_per_conn)) usage_and_exit(argv[i]);
    } else if (const char* v = val("--batch=")) {
      if (!parse_uint(v, cfg.batch, std::size_t{1}, membq::net::kMaxBatch)) {
        usage_and_exit(argv[i]);
      }
    } else if (const char* v = val("--enq-ratio=")) {
      if (!parse_real(v, 0.0, 1.0, cfg.enq_ratio)) usage_and_exit(argv[i]);
    } else if (const char* v = val("--rate=")) {
      if (!parse_real(v, 0.0, std::numeric_limits<double>::max(),
                      cfg.rate_ops_per_sec)) {
        usage_and_exit(argv[i]);
      }
    } else if (const char* v = val("--window=")) {
      if (!parse_count(v, cfg.window)) usage_and_exit(argv[i]);
    } else if (const char* v = val("--park-us=")) {
      if (!parse_uint(v, cfg.park_us)) usage_and_exit(argv[i]);
    } else if (const char* v = val("--drain-limit=")) {
      if (!parse_uint(v, cfg.drain_empty_limit)) usage_and_exit(argv[i]);
    } else {
      usage_and_exit(argv[i]);
    }
  }
  if (!have_connect) {
    std::fprintf(stderr, "membq_loadgen: --connect=HOST:PORT is required\n");
    return 1;
  }

  std::printf("# membq_loadgen -> %s:%u  ops/conn=%zu batch=%zu "
              "enq_ratio=%.2f rate=%.0f window=%zu\n",
              cfg.host.c_str(), static_cast<unsigned>(cfg.port),
              cfg.ops_per_conn, cfg.batch, cfg.enq_ratio,
              cfg.rate_ops_per_sec, cfg.window);

  bool ok = true;
  for (std::size_t conns : fleet_sizes) {
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
    if (!r.ledger_ok) {
      std::printf("  ledger: duplicates=%llu lost=%llu foreign=%llu\n",
                  static_cast<unsigned long long>(r.duplicates),
                  static_cast<unsigned long long>(r.lost),
                  static_cast<unsigned long long>(r.foreign));
    }

    if (!r.error.empty() || !r.ledger_ok) ok = false;
  }

  if (!ok) {
    std::fprintf(stderr, "membq_loadgen: FAILED (error or ledger breach)\n");
    return 1;
  }
  return 0;
}
