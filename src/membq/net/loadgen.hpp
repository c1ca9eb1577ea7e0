// membq_loadgen core: an open-loop client fleet for membq_server.
//
// `conns` client threads each own one TCP connection. During the run
// phase a thread issues `ops_per_conn` frames — ENQ batches of distinct
// tokens or DEQ requests, chosen by `enq_ratio` — paced open-loop when
// `rate_ops_per_sec` is set (send times follow the arrival schedule
// start + i/rate regardless of response progress, up to a bounded
// in-flight window) or closed-loop when it is 0. Every frame's round trip
// is recorded in the shared LatencyHistogram machinery, so percentiles
// over the socket compose exactly like the workload driver's.
//
// Backpressure handling is the client half of the WOULD_BLOCK contract:
// an ENQ answered short has its unaccepted suffix re-queued and re-sent
// (with a park between retries) until every token is acked — the retry
// path, not silent drop, is what completes a run against an undersized
// queue. After the run phase all threads barrier, then drain: DEQ until
// the fleet has received exactly as many tokens as were acked in.
//
// Exactly-once ledger, client side: tokens are globally distinct
// ((conn+1) << 40 | seq, bits 62/63 clear — the same discipline as the
// workload driver, so every registry queue's value contract holds).
// After the join, the fleet-wide multiset check runs: every received
// token must have been acked exactly once (duplicates), every acked token
// must come back (lost), nothing may appear that was never acked
// (foreign). ledger_ok is the AND of all three. A fresh server is
// assumed — tokens left over from a previous run would count as foreign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "workload/histogram.hpp"

namespace membq {
namespace net {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t conns = 2;
  std::size_t ops_per_conn = 10000;  // run-phase frames per connection
  std::size_t batch = 1;             // values per ENQ/DEQ frame
  double enq_ratio = 0.5;            // run-phase ENQ fraction
  double rate_ops_per_sec = 0.0;     // fleet-wide arrival rate; 0 = closed loop
  std::size_t window = 64;           // max in-flight frames per connection
  unsigned park_us = 200;            // park before a WOULD_BLOCK retry
  // Drain-phase patience: consecutive all-empty DEQ sweeps (fleet-wide)
  // tolerated before declaring the missing tokens lost.
  std::size_t drain_empty_limit = 10000;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

struct LoadgenResult {
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t enq_acked = 0;     // tokens accepted by the server
  std::uint64_t deq_received = 0;  // tokens delivered back
  std::uint64_t would_block = 0;   // responses with WOULD_BLOCK status
  std::uint64_t enq_retries = 0;   // tokens re-sent after a short ENQ ack

  // Exactly-once verdict (see header comment).
  bool ledger_ok = false;
  std::uint64_t duplicates = 0;
  std::uint64_t lost = 0;
  std::uint64_t foreign = 0;

  double seconds = 0.0;  // run + drain wall clock
  double frames_per_sec = 0.0;
  workload::LatencyHistogram rtt;  // ns per frame round trip, merged

  // Non-empty on a transport/protocol failure; everything above is then
  // partial.
  std::string error;
};

LoadgenResult run_loadgen(const LoadgenConfig& cfg);

}  // namespace net
}  // namespace membq
