// membq wire protocol: length-prefixed binary frames over a byte stream.
//
// One frame layout serves both directions (docs/server.md is the
// normative write-up):
//
//   frame   := header payload
//   header  := u32 payload_len            // bytes after the header
//   payload := u8 op | u8 status | u16 count | count × u64 values?
//
// All integers little-endian. Ops: ENQ(1) carries `count` values to
// enqueue; DEQ(2) asks for up to `count` values (request carries none,
// response carries the delivered ones); PING(3) is an empty round trip;
// STAT(4) returns the server's counter vector as values. ENQ values keep
// bits 62/63 clear (kReservedValueBits). Requests always carry status 0;
// responses answer OK(0) or WOULD_BLOCK(1) — the bounded queue's
// full/empty verdict made visible — or BAD_FRAME(2) right before the
// server closes a connection that broke the framing rules.
//
// `count` is authoritative, `status` is the backpressure signal: an ENQ
// response's count says how many values of the batch were accepted (a
// prefix — the server stops at the first refusal), a DEQ response's count
// says how many values came back. WOULD_BLOCK means count fell short of
// the request; the remainder is the client's to retry.
//
// The parser is deliberately socket-free: it eats byte spans in whatever
// fragmentation the transport produced (tests/test_net_protocol.cpp feeds
// it byte by byte) and yields complete validated frames. An oversized
// length field is rejected from the header alone — the parser never
// buffers toward a length it would refuse, so a hostile 4-byte header
// cannot reserve gigabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace membq {
namespace net {

enum class Op : std::uint8_t {
  kEnq = 1,
  kDeq = 2,
  kPing = 3,
  kStat = 4,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kWouldBlock = 1,
  kBadFrame = 2,
};

// Frame size discipline: a batch carries at most kMaxBatch values, so the
// largest legal payload is kMaxPayload and anything beyond is a protocol
// error, not an allocation.
constexpr std::size_t kHeaderBytes = 4;
constexpr std::size_t kPayloadFixedBytes = 4;  // op + status + count
constexpr std::size_t kMaxBatch = 4096;
constexpr std::size_t kMaxPayload = kPayloadFixedBytes + 8 * kMaxBatch;

// Bits 62 and 63 of a queued value are reserved for the rings' own cell
// encodings (L2's versioned ⊥, L3's all-ones ⊥, L4's ⊥ and DCSS marker).
// An ENQ request carrying a value with either bit set is a framing
// violation: the rings only assert the contract, and a release build
// would store such a value and lose it or wedge the ring.
constexpr std::uint64_t kReservedValueBits = std::uint64_t{3} << 62;

struct Frame {
  Op op = Op::kPing;
  Status status = Status::kOk;
  // For a DEQ request: how many values are wanted. For every frame that
  // carries values: values.size() == count.
  std::uint16_t count = 0;
  std::vector<std::uint64_t> values;
};

namespace detail {

inline void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace detail

// Append one encoded frame to `out`. `nvalues` values follow; `count` is
// written as given (a DEQ request has count > 0 with nvalues == 0).
inline void append_frame(std::vector<std::uint8_t>& out, Op op, Status status,
                         std::uint16_t count, const std::uint64_t* values,
                         std::size_t nvalues) {
  const std::size_t payload = kPayloadFixedBytes + 8 * nvalues;
  const std::size_t base = out.size();
  out.resize(base + kHeaderBytes + payload);
  std::uint8_t* p = out.data() + base;
  detail::put_u32(p, static_cast<std::uint32_t>(payload));
  p[4] = static_cast<std::uint8_t>(op);
  p[5] = static_cast<std::uint8_t>(status);
  detail::put_u16(p + 6, count);
  for (std::size_t i = 0; i < nvalues; ++i) {
    detail::put_u64(p + 8 + 8 * i, values[i]);
  }
}

inline void append_request(std::vector<std::uint8_t>& out, Op op,
                           std::uint16_t count, const std::uint64_t* values,
                           std::size_t nvalues) {
  append_frame(out, op, Status::kOk, count, values, nvalues);
}

// Which side's frames a parser validates. The structural rules (header,
// length bounds, count/values consistency) are shared; the semantic rules
// differ — e.g. only a DEQ *request* may carry a count without values,
// only a response may carry a non-OK status.
enum class Dir {
  kRequest,   // what a server reads
  kResponse,  // what a client reads
};

class FrameParser {
 public:
  enum class Result {
    kFrame,     // one complete frame written to `out`
    kNeedMore,  // the buffered bytes do not hold a complete frame yet
    kError,     // framing violation; the stream is dead (error() says why)
  };

  explicit FrameParser(Dir dir) : dir_(dir) {}

  // Buffer `n` more stream bytes. Fragmentation-agnostic: any split of
  // the byte stream parses identically.
  void feed(const void* data, std::size_t n) {
    const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
    // Compact the consumed prefix before growing, so a long-lived
    // connection's buffer stays at O(largest frame), not O(stream).
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
    buf_.insert(buf_.end(), p, p + n);
  }

  // Pull the next complete frame out of the buffer. After kError the
  // parser stays in the error state (re-feeding cannot resurrect a stream
  // whose framing is lost).
  Result next(Frame& out) {
    if (error_ != nullptr) return Result::kError;
    const std::size_t avail = buf_.size() - pos_;
    if (avail < kHeaderBytes) return Result::kNeedMore;
    const std::uint8_t* p = buf_.data() + pos_;
    const std::uint32_t len = detail::get_u32(p);
    if (len < kPayloadFixedBytes) return fail("payload length below minimum");
    if (len > kMaxPayload) return fail("oversized length field");
    if (avail < kHeaderBytes + len) return Result::kNeedMore;

    const std::uint8_t op_raw = p[4];
    const std::uint8_t status_raw = p[5];
    const std::uint16_t count = detail::get_u16(p + 6);
    const std::size_t value_bytes = len - kPayloadFixedBytes;
    if (value_bytes % 8 != 0) return fail("payload not a whole value count");
    const std::size_t nvalues = value_bytes / 8;

    if (op_raw < static_cast<std::uint8_t>(Op::kEnq) ||
        op_raw > static_cast<std::uint8_t>(Op::kStat)) {
      return fail("unknown opcode");
    }
    if (status_raw > static_cast<std::uint8_t>(Status::kBadFrame)) {
      return fail("unknown status");
    }
    const Op op = static_cast<Op>(op_raw);
    const Status status = static_cast<Status>(status_raw);
    if (nvalues != 0 && nvalues != count) {
      return fail("count disagrees with carried values");
    }
    if (count > kMaxBatch) return fail("count above kMaxBatch");

    if (dir_ == Dir::kRequest) {
      if (status != Status::kOk) return fail("request with non-OK status");
      switch (op) {
        case Op::kEnq:
          if (count == 0) return fail("zero-length ENQ batch");
          if (nvalues != count) return fail("ENQ request missing its values");
          for (std::size_t i = 0; i < nvalues; ++i) {
            if ((detail::get_u64(p + 8 + 8 * i) & kReservedValueBits) != 0) {
              return fail("ENQ value uses reserved bits 62/63");
            }
          }
          break;
        case Op::kDeq:
          if (count == 0) return fail("zero-length DEQ batch");
          if (nvalues != 0) return fail("DEQ request carrying values");
          break;
        case Op::kPing:
        case Op::kStat:
          if (count != 0 || nvalues != 0) {
            return fail("PING/STAT request carrying a payload");
          }
          break;
      }
    } else {
      // Responses: an ENQ ack never carries values (count = accepted
      // prefix); DEQ/STAT carry exactly `count` values; PING is empty.
      switch (op) {
        case Op::kEnq:
          if (nvalues != 0) return fail("ENQ response carrying values");
          break;
        case Op::kDeq:
        case Op::kStat:
          if (nvalues != count) return fail("response values short of count");
          break;
        case Op::kPing:
          if (count != 0 || nvalues != 0) {
            return fail("PING response carrying a payload");
          }
          break;
      }
    }

    out.op = op;
    out.status = status;
    out.count = count;
    out.values.resize(nvalues);
    for (std::size_t i = 0; i < nvalues; ++i) {
      out.values[i] = detail::get_u64(p + 8 + 8 * i);
    }
    pos_ += kHeaderBytes + len;
    return Result::kFrame;
  }

  // Non-null after kError.
  const char* error() const noexcept { return error_; }

  // Bytes buffered but not yet consumed (0 when the stream is drained at
  // a frame boundary — how the server knows a closing connection left no
  // half frame behind).
  std::size_t pending_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  Result fail(const char* why) noexcept {
    error_ = why;
    return Result::kError;
  }

  Dir dir_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  const char* error_ = nullptr;
};

}  // namespace net
}  // namespace membq
