// membq_server: stand-alone network front end for the registry queues.
//
//   membq_server --queue='sharded(vyukov,4)' --capacity=1024 --workers=2
//                --port=7171 [--ledger --drain-ms=M]
//
// Prints "membq_server listening on <port>" once the listener is live
// (scripts wait for that line), then serves until SIGTERM/SIGINT, then
// drains and exits 0. Exit 1 = bad flag or startup failure.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/server.hpp"
#include "workload/registry.hpp"

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

void usage() {
  std::fprintf(stderr,
               "usage: membq_server [--queue=NAME] [--capacity=N] [--workers=N]\n"
               "                    [--port=P] [--ledger] [--drain-ms=M]\n"
               "                    [--list-queues]\n");
}

}  // namespace

int main(int argc, char** argv) {
  membq::net::ServerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    std::uint64_t n = 0;
    if (const char* v = val("--queue=")) {
      cfg.queue = v;
    } else if (const char* v = val("--capacity=")) {
      if (!parse_u64(v, n) || n == 0) { usage(); return 1; }
      cfg.capacity = static_cast<std::size_t>(n);
    } else if (const char* v = val("--workers=")) {
      if (!parse_u64(v, n) || n == 0) { usage(); return 1; }
      cfg.workers = static_cast<std::size_t>(n);
    } else if (const char* v = val("--port=")) {
      if (!parse_u64(v, n) || n > 65535) { usage(); return 1; }
      cfg.port = static_cast<std::uint16_t>(n);
    } else if (const char* v = val("--drain-ms=")) {
      if (!parse_u64(v, n)) { usage(); return 1; }
      cfg.drain_ms = static_cast<unsigned>(n);
    } else if (arg == "--ledger") {
      cfg.ledger = true;
    } else if (arg == "--list-queues") {
      for (const std::string& name : membq::workload::queue_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "membq_server: unknown flag '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }

  // Block the shutdown signals before any thread exists so the workers
  // inherit the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    membq::net::Server server(cfg);
    server.start();
    std::printf("membq_server listening on %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    int sig = 0;
    sigwait(&sigs, &sig);
    std::fprintf(stderr, "membq_server: signal %d, draining (%u ms max)\n",
                 sig, cfg.drain_ms);
    server.stop_and_join();

    const membq::net::ServerStats st = server.stats();
    std::fprintf(stderr,
                 "membq_server: frames_rx=%llu enq_ok=%llu deq_ok=%llu "
                 "would_block=%llu bad_frames=%llu conns=%llu "
                 "ledger_violations=%llu ledger_outstanding=%llu\n",
                 static_cast<unsigned long long>(st.frames_rx),
                 static_cast<unsigned long long>(st.enq_ok),
                 static_cast<unsigned long long>(st.deq_ok),
                 static_cast<unsigned long long>(st.would_block),
                 static_cast<unsigned long long>(st.bad_frames),
                 static_cast<unsigned long long>(st.conns_accepted),
                 static_cast<unsigned long long>(st.ledger_violations),
                 static_cast<unsigned long long>(st.ledger_outstanding));
    return st.ledger_violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "membq_server: %s\n", e.what());
    return 1;
  }
}
