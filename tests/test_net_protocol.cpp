// Parser robustness for the net/ wire protocol — pure byte spans, plus
// one loopback case. The contracts under test: fragmentation-agnostic
// reassembly (any split of the stream parses identically), header-only
// rejection of hostile lengths (no allocation toward a length the parser
// would refuse), and the per-direction semantic rules. The seeded fuzzer
// at the end checks the first two on random streams, splits and
// mutations, and sends one random stream to a live server.

#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "net/socket.hpp"

namespace {

using membq::net::append_frame;
using membq::net::append_request;
using membq::net::Dir;
using membq::net::Frame;
using membq::net::FrameParser;
using membq::net::kHeaderBytes;
using membq::net::kMaxBatch;
using membq::net::kMaxPayload;
using membq::net::kPayloadFixedBytes;
using membq::net::Op;
using membq::net::Status;

using Bytes = std::vector<std::uint8_t>;
using Result = FrameParser::Result;

Bytes enq_request(std::initializer_list<std::uint64_t> vals) {
  Bytes b;
  std::vector<std::uint64_t> v(vals);
  append_request(b, Op::kEnq, static_cast<std::uint16_t>(v.size()), v.data(),
                 v.size());
  return b;
}

TEST(NetProtocolTest, RoundTripsEveryRequestShape) {
  Bytes b = enq_request({7, 8, 9});
  append_request(b, Op::kDeq, 5, nullptr, 0);
  append_request(b, Op::kPing, 0, nullptr, 0);
  append_request(b, Op::kStat, 0, nullptr, 0);

  FrameParser p(Dir::kRequest);
  p.feed(b.data(), b.size());
  Frame f;
  ASSERT_EQ(p.next(f), Result::kFrame);
  EXPECT_EQ(f.op, Op::kEnq);
  EXPECT_EQ(f.count, 3);
  EXPECT_EQ(f.values, (std::vector<std::uint64_t>{7, 8, 9}));
  ASSERT_EQ(p.next(f), Result::kFrame);
  EXPECT_EQ(f.op, Op::kDeq);
  EXPECT_EQ(f.count, 5);
  EXPECT_TRUE(f.values.empty());
  ASSERT_EQ(p.next(f), Result::kFrame);
  EXPECT_EQ(f.op, Op::kPing);
  ASSERT_EQ(p.next(f), Result::kFrame);
  EXPECT_EQ(f.op, Op::kStat);
  EXPECT_EQ(p.next(f), Result::kNeedMore);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

TEST(NetProtocolTest, TruncatedHeaderNeedsMore) {
  const Bytes b = enq_request({1});
  for (std::size_t cut = 0; cut < kHeaderBytes; ++cut) {
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), cut);
    Frame f;
    EXPECT_EQ(p.next(f), Result::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(p.pending_bytes(), cut);
  }
}

TEST(NetProtocolTest, TruncatedPayloadNeedsMoreThenCompletes) {
  const Bytes b = enq_request({42, 43});
  for (std::size_t cut = kHeaderBytes; cut < b.size(); ++cut) {
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), cut);
    Frame f;
    ASSERT_EQ(p.next(f), Result::kNeedMore) << "cut=" << cut;
    p.feed(b.data() + cut, b.size() - cut);
    ASSERT_EQ(p.next(f), Result::kFrame) << "cut=" << cut;
    EXPECT_EQ(f.values, (std::vector<std::uint64_t>{42, 43}));
  }
}

// The partial-read contract in its strongest form: one byte per feed()
// must parse identically to one big feed — across a multi-frame stream.
TEST(NetProtocolTest, ByteAtATimeFeedMatchesBulkFeed) {
  Bytes b = enq_request({0xDEAD, 0xBEEF});
  append_request(b, Op::kDeq, 2, nullptr, 0);
  append_request(b, Op::kPing, 0, nullptr, 0);

  FrameParser p(Dir::kRequest);
  std::vector<Frame> got;
  Frame f;
  for (std::uint8_t byte : b) {
    p.feed(&byte, 1);
    while (p.next(f) == Result::kFrame) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].op, Op::kEnq);
  EXPECT_EQ(got[0].values, (std::vector<std::uint64_t>{0xDEAD, 0xBEEF}));
  EXPECT_EQ(got[1].op, Op::kDeq);
  EXPECT_EQ(got[1].count, 2);
  EXPECT_EQ(got[2].op, Op::kPing);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

// A hostile length field must be refused from the 4 header bytes alone —
// before any payload arrives, so it can never reserve memory.
TEST(NetProtocolTest, OversizedLengthRejectedFromHeaderAlone) {
  std::uint8_t hdr[kHeaderBytes];
  membq::net::detail::put_u32(hdr, 0xFFFFFFFFu);
  FrameParser p(Dir::kRequest);
  p.feed(hdr, sizeof(hdr));
  Frame f;
  ASSERT_EQ(p.next(f), Result::kError);
  EXPECT_STREQ(p.error(), "oversized length field");

  // Exactly one past the cap fails the same way; exactly at the cap is a
  // structural pass (it just waits for the payload).
  membq::net::detail::put_u32(hdr, static_cast<std::uint32_t>(kMaxPayload + 1));
  FrameParser q(Dir::kRequest);
  q.feed(hdr, sizeof(hdr));
  ASSERT_EQ(q.next(f), Result::kError);
  membq::net::detail::put_u32(hdr, static_cast<std::uint32_t>(kMaxPayload));
  FrameParser r(Dir::kRequest);
  r.feed(hdr, sizeof(hdr));
  EXPECT_EQ(r.next(f), Result::kNeedMore);
}

TEST(NetProtocolTest, LengthBelowFixedPayloadRejected) {
  std::uint8_t hdr[kHeaderBytes];
  membq::net::detail::put_u32(
      hdr, static_cast<std::uint32_t>(kPayloadFixedBytes - 1));
  FrameParser p(Dir::kRequest);
  p.feed(hdr, sizeof(hdr));
  Frame f;
  ASSERT_EQ(p.next(f), Result::kError);
}

TEST(NetProtocolTest, ZeroLengthBatchesRejected) {
  for (Op op : {Op::kEnq, Op::kDeq}) {
    Bytes b;
    append_request(b, op, 0, nullptr, 0);
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    EXPECT_EQ(p.next(f), Result::kError) << "op=" << static_cast<int>(op);
  }
}

TEST(NetProtocolTest, CountValueMismatchRejected) {
  // 2 values but count says 3.
  const std::uint64_t vals[2] = {1, 2};
  Bytes b;
  append_frame(b, Op::kEnq, Status::kOk, 3, vals, 2);
  FrameParser p(Dir::kRequest);
  p.feed(b.data(), b.size());
  Frame f;
  ASSERT_EQ(p.next(f), Result::kError);
  EXPECT_STREQ(p.error(), "count disagrees with carried values");
}

TEST(NetProtocolTest, RaggedValueBytesRejected) {
  Bytes b = enq_request({1});
  // Shave 3 bytes off the value and fix the length to match: payload is
  // no longer a whole number of values.
  b.resize(b.size() - 3);
  membq::net::detail::put_u32(b.data(),
                              static_cast<std::uint32_t>(b.size() - kHeaderBytes));
  FrameParser p(Dir::kRequest);
  p.feed(b.data(), b.size());
  Frame f;
  ASSERT_EQ(p.next(f), Result::kError);
  EXPECT_STREQ(p.error(), "payload not a whole value count");
}

TEST(NetProtocolTest, UnknownOpcodeAndStatusRejected) {
  Bytes b;
  append_request(b, Op::kPing, 0, nullptr, 0);
  b[4] = 0;  // below kEnq
  {
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    EXPECT_EQ(p.next(f), Result::kError);
  }
  b[4] = 99;  // above kStat
  {
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    EXPECT_EQ(p.next(f), Result::kError);
  }
  b[4] = static_cast<std::uint8_t>(Op::kPing);
  b[5] = 7;  // not a Status
  {
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    EXPECT_EQ(p.next(f), Result::kError);
  }
}

TEST(NetProtocolTest, DirectionRulesDiffer) {
  // A request may not carry a non-OK status...
  Bytes b;
  append_frame(b, Op::kEnq, Status::kWouldBlock, 2, nullptr, 0);
  {
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    EXPECT_EQ(p.next(f), Result::kError);
  }
  // ...but the same bytes are a legal ENQ response (short ack).
  {
    FrameParser p(Dir::kResponse);
    p.feed(b.data(), b.size());
    Frame f;
    ASSERT_EQ(p.next(f), Result::kFrame);
    EXPECT_EQ(f.status, Status::kWouldBlock);
    EXPECT_EQ(f.count, 2);
  }
  // A DEQ request is bare; a DEQ response must carry count values.
  Bytes d;
  append_frame(d, Op::kDeq, Status::kOk, 2, nullptr, 0);
  {
    FrameParser p(Dir::kResponse);
    p.feed(d.data(), d.size());
    Frame f;
    EXPECT_EQ(p.next(f), Result::kError);
  }
}

TEST(NetProtocolTest, ErrorStateIsSticky) {
  Bytes bad;
  append_request(bad, Op::kEnq, 0, nullptr, 0);  // zero-length batch
  const Bytes good = enq_request({5});
  FrameParser p(Dir::kRequest);
  p.feed(bad.data(), bad.size());
  Frame f;
  ASSERT_EQ(p.next(f), Result::kError);
  p.feed(good.data(), good.size());
  EXPECT_EQ(p.next(f), Result::kError);
  EXPECT_NE(p.error(), nullptr);
}

TEST(NetProtocolTest, CountAboveMaxBatchRejected) {
  // A DEQ request asking for more than kMaxBatch: structurally fine
  // (carries no values) but over the batch cap.
  Bytes b;
  append_request(b, Op::kDeq, static_cast<std::uint16_t>(kMaxBatch + 1),
                 nullptr, 0);
  FrameParser p(Dir::kRequest);
  p.feed(b.data(), b.size());
  Frame f;
  ASSERT_EQ(p.next(f), Result::kError);
  EXPECT_STREQ(p.error(), "count above kMaxBatch");
}

TEST(NetProtocolTest, EnqValueWithReservedBitsRejected) {
  // The largest legal value parses; bit 62, bit 63 or both are refused,
  // wherever in the batch the value sits.
  const std::uint64_t top_legal = (std::uint64_t{1} << 62) - 1;
  {
    const Bytes b = enq_request({1, top_legal});
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    ASSERT_EQ(p.next(f), Result::kFrame);
    EXPECT_EQ(f.values.back(), top_legal);
  }
  for (const std::uint64_t bad : {std::uint64_t{1} << 62, std::uint64_t{1} << 63,
                                  ~std::uint64_t{0}}) {
    const Bytes b = enq_request({1, 2, bad});
    FrameParser p(Dir::kRequest);
    p.feed(b.data(), b.size());
    Frame f;
    ASSERT_EQ(p.next(f), Result::kError) << std::hex << bad;
    EXPECT_STREQ(p.error(), "ENQ value uses reserved bits 62/63");
  }
  // A response may carry any value (STAT counters, DEQ deliveries).
  const std::uint64_t any = ~std::uint64_t{0};
  Bytes r;
  append_frame(r, Op::kStat, Status::kOk, 1, &any, 1);
  FrameParser p(Dir::kResponse);
  p.feed(r.data(), r.size());
  Frame f;
  EXPECT_EQ(p.next(f), Result::kFrame);
}

// ---- seeded fuzzer --------------------------------------------------------

// A random valid request stream of `frames` frames; `ends` gets each
// frame's end offset.
Bytes random_requests(std::mt19937_64& rng, std::size_t frames,
                      std::vector<std::size_t>& ends) {
  Bytes b;
  std::vector<std::uint64_t> vals;
  for (std::size_t i = 0; i < frames; ++i) {
    const auto count = static_cast<std::uint16_t>(1 + rng() % 8);
    switch (rng() % 4) {
      case 0:
        vals.resize(count);
        for (auto& v : vals) v = 1 + rng() % 1000;
        append_request(b, Op::kEnq, count, vals.data(), count);
        break;
      case 1:
        append_request(b, Op::kDeq, count, nullptr, 0);
        break;
      case 2:
        append_request(b, Op::kPing, 0, nullptr, 0);
        break;
      default:
        append_request(b, Op::kStat, 0, nullptr, 0);
        break;
    }
    ends.push_back(b.size());
  }
  return b;
}

// Feeds `b` in random-sized pieces, collecting frames until the stream
// ends or the parser fails; after a failure, checks that it stays failed.
std::vector<Frame> parse_split(const Bytes& b, std::mt19937_64& rng) {
  FrameParser p(Dir::kRequest);
  std::vector<Frame> got;
  Frame f;
  for (std::size_t pos = 0; pos < b.size();) {
    const std::size_t n = std::min<std::size_t>(b.size() - pos, 1 + rng() % 64);
    p.feed(b.data() + pos, n);
    pos += n;
    Result r;
    while ((r = p.next(f)) == Result::kFrame) got.push_back(f);
    if (r == Result::kError) {
      p.feed(b.data(), b.size());
      EXPECT_EQ(p.next(f), Result::kError);  // sticky
      EXPECT_NE(p.error(), nullptr);
      return got;
    }
  }
  return got;
}

bool same_frame(const Frame& a, const Frame& b) {
  return a.op == b.op && a.status == b.status && a.count == b.count &&
         a.values == b.values;
}

TEST(NetProtocolTest, FuzzRandomSplitsParseLikeOneFeed) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> ends;
    const Bytes b = random_requests(rng, 1 + rng() % 64, ends);
    FrameParser whole(Dir::kRequest);
    whole.feed(b.data(), b.size());
    std::vector<Frame> want;
    Frame f;
    while (whole.next(f) == Result::kFrame) want.push_back(f);
    ASSERT_EQ(want.size(), ends.size());
    const std::vector<Frame> got = parse_split(b, rng);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_frame(got[i], want[i])) << "frame " << i;
    }
  }
}

TEST(NetProtocolTest, FuzzMutatedStreamsKeepValidPrefixThenFramesOrError) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> ends;
    const Bytes clean = random_requests(rng, 1 + rng() % 16, ends);
    std::vector<Frame> want;
    {
      FrameParser p(Dir::kRequest);
      p.feed(clean.data(), clean.size());
      Frame f;
      while (p.next(f) == Result::kFrame) want.push_back(f);
    }
    // Flip, insert, delete or truncate at random offsets; `first` is the
    // lowest offset touched, so every frame ending at or before it must
    // still parse as in the clean stream.
    Bytes b = clean;
    std::size_t first = b.size();
    for (std::size_t k = 1 + rng() % 4; k > 0 && !b.empty(); --k) {
      const std::size_t at = rng() % b.size();
      switch (rng() % 4) {
        case 0: b[at] ^= static_cast<std::uint8_t>(1 + rng() % 255); break;
        case 1: b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                         static_cast<std::uint8_t>(rng()));
                break;
        case 2: b.erase(b.begin() + static_cast<std::ptrdiff_t>(at)); break;
        default: b.resize(at); break;
      }
      first = std::min(first, at);
    }
    const std::vector<Frame> got = parse_split(b, rng);
    const std::size_t intact = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), first) - ends.begin());
    ASSERT_GE(got.size(), intact);
    for (std::size_t i = 0; i < intact; ++i) {
      EXPECT_TRUE(same_frame(got[i], want[i])) << "intact frame " << i;
    }
    // Whatever parses past the damage is still a well-formed request.
    for (const Frame& g : got) {
      EXPECT_EQ(g.status, Status::kOk);
      EXPECT_LE(g.count, kMaxBatch);
      EXPECT_EQ(g.values.size(), g.op == Op::kEnq ? g.count : 0u);
      for (const std::uint64_t v : g.values) {
        EXPECT_EQ(v & membq::net::kReservedValueBits, 0u);
      }
      EXPECT_EQ(g.count == 0, g.op == Op::kPing || g.op == Op::kStat);
    }
  }
}

// The whole response stream a fresh server sends for `requests`, written
// in one piece or, with `rng`, in random-sized pieces.
Bytes serve_stream(const Bytes& requests, std::size_t frames,
                   std::mt19937_64* rng) {
  membq::net::ServerConfig cfg;
  cfg.queue = "vyukov(perslot-seq)";
  cfg.capacity = 16;
  membq::net::Server server(cfg);
  server.start();
  membq::net::Fd sock = membq::net::connect_tcp("127.0.0.1", server.port());
  EXPECT_TRUE(sock.valid());
  std::thread writer([&] {
    for (std::size_t pos = 0; pos < requests.size();) {
      const std::size_t n =
          rng == nullptr ? requests.size()
                         : std::min<std::size_t>(requests.size() - pos,
                                                 1 + (*rng)() % 3000);
      if (!membq::net::write_all(sock.get(), requests.data() + pos, n)) return;
      pos += n;
    }
  });
  Bytes out;
  FrameParser p(Dir::kResponse);
  Frame f;
  std::uint8_t buf[4096];
  for (std::size_t got = 0; got < frames;) {
    const ssize_t n = ::read(sock.get(), buf, sizeof(buf));
    if (n <= 0) break;
    out.insert(out.end(), buf, buf + n);
    p.feed(buf, static_cast<std::size_t>(n));
    while (p.next(f) == Result::kFrame) ++got;
  }
  writer.join();
  return out;
}

TEST(NetProtocolTest, FuzzSplitWritesToLiveServerAnswerLikeOneWrite) {
  std::mt19937_64 rng(7);
  std::vector<std::size_t> ends;
  const Bytes requests = random_requests(rng, 3000, ends);
  const Bytes whole = serve_stream(requests, ends.size(), nullptr);
  const Bytes split = serve_stream(requests, ends.size(), &rng);
  EXPECT_FALSE(whole.empty());
  EXPECT_EQ(whole, split);
}

}  // namespace
