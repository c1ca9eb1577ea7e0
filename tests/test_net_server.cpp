// Loopback end-to-end for the net/ subsystem: a real Server on an
// ephemeral port driven by the loadgen fleet (exactly-once ledger on both
// ends), plus raw-socket probes of the protocol edges (PING, STAT,
// BAD_FRAME close) and the shutdown drain.

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "workload/registry.hpp"

namespace {

using namespace membq::net;

// Blocking request/response over a raw client socket: send the encoded
// bytes, read until the response parser yields a frame.
Frame roundtrip(int fd, const std::vector<std::uint8_t>& req) {
  EXPECT_TRUE(write_all(fd, req.data(), req.size()));
  FrameParser parser(Dir::kResponse);
  Frame f;
  char buf[4096];
  for (;;) {
    const FrameParser::Result r = parser.next(f);
    if (r == FrameParser::Result::kFrame) return f;
    EXPECT_NE(r, FrameParser::Result::kError) << parser.error();
    if (r == FrameParser::Result::kError) return f;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    EXPECT_GT(n, 0) << "server closed mid-response";
    if (n <= 0) return f;
    parser.feed(buf, static_cast<std::size_t>(n));
  }
}

// Reads until the server closes `fd`, each read within 10 s; every frame
// before the close must be BAD_FRAME, and there must be one.
void expect_bad_frame_then_close(int fd) {
  FrameParser parser(Dir::kResponse);
  Frame f;
  char buf[512];
  bool got_bad_frame = false, got_eof = false;
  for (int i = 0; i < 100 && !got_eof; ++i) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 10000), 1) << "no answer and no close in 10 s";
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    parser.feed(buf, static_cast<std::size_t>(n));
    while (parser.next(f) == FrameParser::Result::kFrame) {
      EXPECT_EQ(f.status, Status::kBadFrame);
      got_bad_frame = true;
    }
  }
  EXPECT_TRUE(got_bad_frame);
  EXPECT_TRUE(got_eof);
}

TEST(NetServerTest, RegistryLookupByName) {
  // The --queue flag and the bench registry share one table.
  auto q = membq::workload::make_queue_by_name("vyukov(perslot-seq)", 8);
  ASSERT_NE(q, nullptr);
  auto h = q->make_handle();
  EXPECT_TRUE(h->try_enqueue(41));
  std::uint64_t v = 0;
  EXPECT_TRUE(h->try_dequeue(v));
  EXPECT_EQ(v, 41u);
  EXPECT_FALSE(h->try_dequeue(v));

  EXPECT_EQ(membq::workload::make_queue_by_name("no-such-queue", 8), nullptr);
  const auto names = membq::workload::queue_names();
  EXPECT_GE(names.size(), 10u);

  ServerConfig bad;
  bad.queue = "no-such-queue";
  EXPECT_THROW(Server{bad}, std::runtime_error);
}

TEST(NetServerTest, PingStatAndEnqDeqOverLoopback) {
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  cfg.workers = 2;
  cfg.ledger = true;
  Server server(cfg);
  server.start();

  Fd sock = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());

  std::vector<std::uint8_t> req;
  append_request(req, Op::kPing, 0, nullptr, 0);
  Frame f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kPing);
  EXPECT_EQ(f.status, Status::kOk);

  // ENQ 3, DEQ 3 back in FIFO order (single client, FIFO queue).
  const std::uint64_t vals[3] = {10, 11, 12};
  req.clear();
  append_request(req, Op::kEnq, 3, vals, 3);
  f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kEnq);
  EXPECT_EQ(f.status, Status::kOk);
  EXPECT_EQ(f.count, 3);

  req.clear();
  append_request(req, Op::kDeq, 3, nullptr, 0);
  f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kDeq);
  EXPECT_EQ(f.count, 3);
  EXPECT_EQ(f.values, (std::vector<std::uint64_t>{10, 11, 12}));

  // STAT: the pinned 8-value counter vector, already showing this
  // connection's traffic.
  req.clear();
  append_request(req, Op::kStat, 0, nullptr, 0);
  f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kStat);
  ASSERT_EQ(f.values.size(), ServerStats::kStatValues);
  EXPECT_GE(f.values[0], 3u);   // frames_rx
  EXPECT_EQ(f.values[1], 3u);   // enq_ok
  EXPECT_EQ(f.values[2], 3u);   // deq_ok
  EXPECT_EQ(f.values[6], 0u);   // ledger_violations
  EXPECT_EQ(f.values[7], 0u);   // ledger_outstanding

  sock.reset();
  server.stop_and_join();
  EXPECT_EQ(server.stats().ledger_violations, 0u);
}

TEST(NetServerTest, EmptyDequeueAnswersWouldBlock) {
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  Server server(cfg);
  server.start();
  Fd sock = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());

  std::vector<std::uint8_t> req;
  append_request(req, Op::kDeq, 4, nullptr, 0);
  const Frame f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kDeq);
  EXPECT_EQ(f.status, Status::kWouldBlock);
  EXPECT_EQ(f.count, 0);
  EXPECT_TRUE(f.values.empty());
  sock.reset();
  server.stop_and_join();
}

// WOULD_BLOCK means full or empty, on every ring. A ring's bulk op may
// stop short where another thread holds the next cell; the server must
// not pass that on. Four connections on four workers pipeline batches of
// 8 into a ring that never fills, then out of one that never empties, so
// every frame must be answered OK with its whole batch.
TEST(NetServerTest, ContendedBatchesAreShortOnlyWhenFullOrEmpty) {
  constexpr int kConns = 4;
  constexpr int kFrames = 96;  // per connection and phase
  constexpr std::uint16_t kBatch = 8;
  for (const char* queue :
       {"distinct(L2)", "llsc(L3)", "dcss(L4)", "optimal(L5,lf,ebr)"}) {
    SCOPED_TRACE(queue);
    ServerConfig cfg;
    cfg.queue = queue;
    cfg.capacity = 2 * kConns * kFrames * kBatch;
    cfg.workers = kConns;
    Server server(cfg);
    server.start();
    std::vector<Fd> socks;
    for (int c = 0; c < kConns; ++c) {
      socks.push_back(connect_tcp("127.0.0.1", server.port()));
      ASSERT_TRUE(socks.back().valid());
    }
    // One phase: every connection writes all its frames at once, then
    // reads every answer.
    const auto phase = [&](Op op) {
      std::vector<std::thread> clients;
      std::atomic<int> short_answers{0};
      for (int c = 0; c < kConns; ++c) {
        clients.emplace_back([&, c] {
          std::vector<std::uint8_t> req;
          std::uint64_t vals[kBatch];
          for (int i = 0; i < kFrames; ++i) {
            for (std::uint16_t j = 0; j < kBatch; ++j) {
              vals[j] = (std::uint64_t(c) * kFrames + i) * kBatch + j;
            }
            append_request(req, op, kBatch, vals, op == Op::kEnq ? kBatch : 0);
          }
          if (!write_all(socks[c].get(), req.data(), req.size())) {
            short_answers += kFrames;
            return;
          }
          FrameParser parser(Dir::kResponse);
          Frame f;
          char buf[4096];
          for (int got = 0; got < kFrames;) {
            if (parser.next(f) == FrameParser::Result::kFrame) {
              if (f.status != Status::kOk || f.count != kBatch) ++short_answers;
              ++got;
              continue;
            }
            const ssize_t n = ::read(socks[c].get(), buf, sizeof(buf));
            if (n <= 0) {
              short_answers += kFrames - got;
              return;
            }
            parser.feed(buf, static_cast<std::size_t>(n));
          }
        });
      }
      for (auto& t : clients) t.join();
      EXPECT_EQ(short_answers.load(), 0) << "op " << int(op);
    };
    phase(Op::kEnq);
    phase(Op::kDeq);
    socks.clear();
    server.stop_and_join();
    EXPECT_EQ(server.stats().would_block, 0u);
    EXPECT_EQ(server.stats().deq_ok, std::uint64_t{kConns} * kFrames * kBatch);
  }
}

TEST(NetServerTest, BadFrameGetsStatusThenClose) {
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  Server server(cfg);
  server.start();
  Fd sock = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());

  // Zero-length ENQ batch: a framing violation the parser rejects.
  std::vector<std::uint8_t> req;
  append_frame(req, Op::kEnq, Status::kOk, 0, nullptr, 0);
  ASSERT_TRUE(write_all(sock.get(), req.data(), req.size()));
  expect_bad_frame_then_close(sock.get());

  server.stop_and_join();
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(NetServerTest, LoadgenExactlyOnceLedger) {
  ServerConfig cfg;
  cfg.queue = "sharded(vyukov,4)";
  cfg.capacity = 256;
  cfg.workers = 2;
  cfg.ledger = true;
  Server server(cfg);
  server.start();

  LoadgenConfig lcfg;
  lcfg.port = server.port();
  lcfg.conns = 3;
  lcfg.ops_per_conn = 1500;
  lcfg.batch = 4;
  lcfg.window = 16;
  const LoadgenResult r = run_loadgen(lcfg);
  server.stop_and_join();

  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.ledger_ok) << "dup=" << r.duplicates << " lost=" << r.lost
                           << " foreign=" << r.foreign;
  EXPECT_GT(r.enq_acked, 0u);
  EXPECT_EQ(r.enq_acked, r.deq_received);  // drained to empty
  EXPECT_GT(r.rtt.count(), 0u);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.ledger_violations, 0u);
  EXPECT_EQ(st.ledger_outstanding, 0u);
  EXPECT_EQ(st.enq_ok, r.enq_acked);
  EXPECT_EQ(st.deq_ok, r.deq_received);
}

TEST(NetServerTest, BackpressureRetryCompletesOnUndersizedQueue) {
  // Capacity 4 against an enqueue-heavy fleet: WOULD_BLOCK must fire, and
  // the client retry path must still land every token exactly once.
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 4;
  cfg.workers = 2;
  cfg.ledger = true;
  Server server(cfg);
  server.start();

  LoadgenConfig lcfg;
  lcfg.port = server.port();
  lcfg.conns = 2;
  lcfg.ops_per_conn = 400;
  lcfg.batch = 4;
  lcfg.enq_ratio = 0.85;
  lcfg.window = 4;
  lcfg.park_us = 50;
  const LoadgenResult r = run_loadgen(lcfg);
  server.stop_and_join();

  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_GT(r.would_block, 0u);
  EXPECT_GT(r.enq_retries, 0u);
  EXPECT_TRUE(r.ledger_ok) << "dup=" << r.duplicates << " lost=" << r.lost
                           << " foreign=" << r.foreign;
  EXPECT_EQ(r.enq_acked, r.deq_received);
  EXPECT_EQ(server.stats().ledger_violations, 0u);
}

TEST(NetServerTest, StopDrainsEstablishedConnections) {
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  cfg.drain_ms = 2000;
  Server server(cfg);
  server.start();

  Fd sock = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());

  // First round trip proves the server accepted us (a bare connect_tcp
  // can succeed out of the backlog before any worker accepts).
  std::vector<std::uint8_t> req;
  append_request(req, Op::kPing, 0, nullptr, 0);
  Frame f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kPing);

  server.request_stop();

  // The established connection keeps being served through the drain
  // window...
  f = roundtrip(sock.get(), req);
  EXPECT_EQ(f.op, Op::kPing);
  EXPECT_EQ(f.status, Status::kOk);

  // ...and once it closes, the workers wind down.
  sock.reset();
  server.stop_and_join();
  EXPECT_GE(server.stats().conns_accepted, 1u);
}

// A client that pipelines STAT requests and never reads its answers must
// be pushed back by TCP once the server holds a bounded amount of unsent
// output, not grow server memory with everything it sends. Reading
// afterwards must then yield exactly one STAT answer per request.
TEST(NetServerTest, NeverReadingClientIsPushedBack) {
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  Server server(cfg);
  server.start();
  Fd sock = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(set_nonblocking(sock.get()));

  std::vector<std::uint8_t> stats;  // 8192 STAT requests, 8 bytes each
  for (int i = 0; i < 8192; ++i) append_request(stats, Op::kStat, 0, nullptr, 0);
  constexpr std::size_t kCap = std::size_t{64} << 20;
  std::size_t sent = 0;
  bool stalled = false;
  while (!stalled && sent < kCap) {
    const std::size_t off = sent % stats.size();
    const ssize_t w = ::write(sock.get(), stats.data() + off, stats.size() - off);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
    pollfd p{sock.get(), POLLOUT, 0};
    stalled = ::poll(&p, 1, 200) == 0;  // still unwritable after 200 ms
  }
  EXPECT_TRUE(stalled) << "wrote " << sent << " bytes without a 200 ms stall";
  EXPECT_LT(sent, kCap);
  // A server that pauses reading while it works through a huge backlog
  // also stalls the client for a while; pushback means the answers it
  // produced for a client that read none stay bounded too.
  constexpr std::size_t kStatAnswerBytes =
      kHeaderBytes + kPayloadFixedBytes + 8 * ServerStats::kStatValues;
  EXPECT_LT(server.stats().frames_rx * kStatAnswerBytes, kCap);

  // Finish the frame a partial write may have cut, and read every answer.
  const std::size_t requests = (sent + 7) / 8;
  FrameParser parser(Dir::kResponse);
  Frame f;
  std::size_t answers = 0;
  std::vector<char> buf(64 * 1024);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (answers < requests && std::chrono::steady_clock::now() < deadline) {
    const bool cut = sent < requests * 8;
    pollfd p{sock.get(), static_cast<short>(POLLIN | (cut ? POLLOUT : 0)), 0};
    ::poll(&p, 1, 1000);
    if (cut && (p.revents & POLLOUT) != 0) {
      const ssize_t w = ::write(sock.get(), stats.data() + sent % stats.size(),
                                requests * 8 - sent);
      if (w > 0) sent += static_cast<std::size_t>(w);
    }
    const ssize_t n = ::read(sock.get(), buf.data(), buf.size());
    if (n == 0) break;
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
      continue;
    }
    parser.feed(buf.data(), static_cast<std::size_t>(n));
    while (parser.next(f) == FrameParser::Result::kFrame) {
      ++answers;
      ASSERT_EQ(f.op, Op::kStat);
      ASSERT_EQ(f.status, Status::kOk);
      ASSERT_EQ(f.values.size(), ServerStats::kStatValues);
    }
  }
  EXPECT_EQ(answers, requests);
  EXPECT_EQ(f.values.empty() ? 0 : f.values[0], requests);  // frames_rx
  EXPECT_EQ(parser.pending_bytes(), 0u);
  sock.reset();
  server.stop_and_join();
  EXPECT_EQ(server.stats().frames_rx, requests);
}

// One request/response round trip that must complete within
// `timeout_ms`; the response lands in `f`.
bool roundtrip_within(int fd, const std::vector<std::uint8_t>& req,
                      int timeout_ms, Frame& f) {
  if (!write_all(fd, req.data(), req.size())) return false;
  FrameParser parser(Dir::kResponse);
  char buf[256];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (parser.next(f) != FrameParser::Result::kFrame) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      return false;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    parser.feed(buf, static_cast<std::size_t>(n));
  }
  return true;
}

// One PING round trip that must complete within `timeout_ms`.
bool ping_within(int fd, int timeout_ms) {
  std::vector<std::uint8_t> req;
  append_request(req, Op::kPing, 0, nullptr, 0);
  Frame f;
  return roundtrip_within(fd, req, timeout_ms, f) && f.op == Op::kPing &&
         f.status == Status::kOk;
}

// On the only worker, a connection that streams PINGs as fast as it can
// (draining its answers on another thread) must not starve an already
// served neighbour: each of the neighbour's closed-loop PINGs is answered
// within 1 s.
TEST(NetServerTest, FloodingConnectionDoesNotStarveNeighbour) {
  ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  Fd neighbour = connect_tcp("127.0.0.1", server.port());
  Fd flood = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(neighbour.valid());
  ASSERT_TRUE(flood.valid());
  ASSERT_TRUE(ping_within(neighbour.get(), 10000));
  ASSERT_TRUE(ping_within(flood.get(), 10000));

  std::vector<std::uint8_t> pings;
  for (int i = 0; i < 8192; ++i) append_request(pings, Op::kPing, 0, nullptr, 0);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> flooded{0};
  std::thread writer([&] {
    // Bounded so a server that buffers everything it reads cannot take
    // the host's memory with it.
    for (std::size_t sent = 0; !done.load() && sent < (std::size_t{256} << 20);) {
      const std::size_t off = sent % pings.size();
      const ssize_t w = ::send(flood.get(), pings.data() + off,
                               pings.size() - off, MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<std::size_t>(w);
      flooded.store(sent);
    }
  });
  std::thread reader([&] {
    std::vector<char> buf(64 * 1024);
    while (::read(flood.get(), buf.data(), buf.size()) > 0) {
    }
  });
  // The neighbour starts once the flood is under way.
  for (int i = 0; i < 10000 && flooded.load() < (std::size_t{1} << 20); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  int answered = 0;
  while (answered < 200 && ping_within(neighbour.get(), 1000)) ++answered;
  done.store(true);
  ::shutdown(flood.get(), SHUT_RDWR);
  writer.join();
  reader.join();
  EXPECT_EQ(answered, 200) << "neighbour PING " << answered + 1
                           << " unanswered after 1 s";
  neighbour.reset();
  flood.reset();
  server.stop_and_join();
}

// Bits 62/63 are the rings' reserved encodings, and their asserts are
// compiled out in release builds. On dcss(L4) an accepted ENQ of 1<<63
// would plant a word that reads as a DCSS marker: the next DEQ would spin
// in DcssDomain::read helping a descriptor that never existed, and the
// only worker would never answer anyone again. The parser refuses the
// value: BAD_FRAME and a close, and a fresh connection is served within
// 1 s.
TEST(NetServerTest, ReservedBitValueIsBadFrameAndWorkerStaysLive) {
  ServerConfig cfg;
  cfg.queue = "dcss(L4)";
  cfg.capacity = 16;
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  {
    Fd sock = connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(sock.valid());
    const std::uint64_t reserved = std::uint64_t{1} << 63;
    std::vector<std::uint8_t> req;
    append_request(req, Op::kEnq, 1, &reserved, 1);
    ASSERT_TRUE(write_all(sock.get(), req.data(), req.size()));
    expect_bad_frame_then_close(sock.get());
  }

  Fd fresh = connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(fresh.valid());
  const std::uint64_t v = 42;
  std::vector<std::uint8_t> req;
  append_request(req, Op::kEnq, 1, &v, 1);
  Frame f;
  ASSERT_TRUE(roundtrip_within(fresh.get(), req, 1000, f))
      << "ENQ unanswered after 1 s";
  EXPECT_EQ(f.status, Status::kOk);
  EXPECT_EQ(f.count, 1);
  req.clear();
  append_request(req, Op::kDeq, 1, nullptr, 0);
  ASSERT_TRUE(roundtrip_within(fresh.get(), req, 1000, f))
      << "DEQ unanswered after 1 s";
  EXPECT_EQ(f.values, (std::vector<std::uint64_t>{42}));

  fresh.reset();
  server.stop_and_join();
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

}  // namespace
