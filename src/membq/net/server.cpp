#include "net/server.hpp"

#include <sys/epoll.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/clock.hpp"
#include "net/protocol.hpp"
#include "telemetry/counters.hpp"

namespace membq {
namespace net {

namespace {

constexpr int kEpollBatch = 16;
constexpr int kWaitMs = 200;       // stop_ flag latency while serving
constexpr int kDrainWaitMs = 10;   // poll cadence during drain
constexpr std::size_t kReadBytes = 64 * 1024;  // one read() per wakeup

// Unsent output at which a connection stops executing and reading. Above
// one 4096-value DEQ response (32 KiB), so any single frame can always be
// answered; unsent bytes stay below the mark plus one largest response.
constexpr std::size_t kOutHighWater = 256 * 1024;

// A handed-over fd is registered writable as well as readable: a fresh
// socket is writable at once, so its owner meets it on the next wakeup,
// and after a forced stop every fd no owner met is still reported ready.
constexpr std::uint32_t kArmedAtAccept = EPOLLIN | EPOLLOUT;

// Runs `op(done, remaining)`, a bulk queue op on the rest of a batch,
// until the batch is done or a call moves nothing. A ring's bulk op may
// stop short where another thread holds the next cell, but its first
// claim returns 0 only on a full or empty verdict. So a short total means
// the queue was full (ENQ) or empty (DEQ), and WOULD_BLOCK keeps meaning
// that on every ring.
template <class BulkOp>
std::uint16_t whole_batch(std::uint16_t n, BulkOp op) {
  std::size_t done = 0;
  while (done < n) {
    const std::size_t k = op(done, n - done);
    if (k == 0) break;
    done += k;
  }
  return static_cast<std::uint16_t>(done);
}

bool epoll_set(int epfd, int op, int fd, std::uint32_t events) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

}  // namespace

// Per-connection state, created and touched only by the owning worker.
struct Server::Conn {
  explicit Conn(int fd_in) : fd(fd_in), parser(Dir::kRequest) {}

  Fd fd;
  FrameParser parser;
  std::vector<std::uint8_t> out;  // encoded-but-unsent responses
  std::uint32_t armed = kArmedAtAccept;  // interest registered in epoll
  bool eof = false;  // the peer half-closed: answer what came, then close

  bool reading() const noexcept { return !eof && parser.error() == nullptr; }

  // Write what the socket takes; false = write error (caller closes).
  // MSG_NOSIGNAL: a peer that reset the connection costs it the
  // connection, not the server its process.
  bool flush() {
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w = ::send(fd.get(), out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
        break;  // pending: EPOLLOUT resumes it
      }
      sent += static_cast<std::size_t>(w);
    }
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(sent));
    return true;
  }
};

struct Server::Worker {
  Fd epoll;
  std::vector<std::unique_ptr<Conn>> conns;  // indexed by fd
  std::thread thread;
};

Server::Server(const ServerConfig& cfg) : cfg_(cfg) {
  const std::size_t n = cfg_.workers > 0 ? cfg_.workers : 1;
  queue_ = workload::make_queue_by_name(cfg_.queue, cfg_.capacity, n + 2);
  if (queue_ == nullptr) {
    throw std::runtime_error("membq_server: unknown queue '" + cfg_.queue +
                             "' (see workload::queue_names())");
  }
  listener_ = make_listener(cfg_.port, port_);
  if (!listener_.valid()) {
    throw std::runtime_error(std::string("membq_server: listen failed: ") +
                             std::strerror(errno));
  }
  if (!set_nonblocking(listener_.get())) {
    throw std::runtime_error("membq_server: cannot set listener nonblocking");
  }
  workers_ = std::vector<Worker>(n);
  for (Worker& w : workers_) {
    w.epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    if (!w.epoll.valid()) {
      throw std::runtime_error("membq_server: epoll_create1 failed");
    }
    // Level-triggered + EPOLLEXCLUSIVE: a pending accept backlog wakes
    // one waiting worker, not all of them.
    if (!epoll_set(w.epoll.get(), EPOLL_CTL_ADD, listener_.get(),
                   EPOLLIN | EPOLLEXCLUSIVE)) {
      throw std::runtime_error("membq_server: epoll_ctl(listener) failed");
    }
  }
}

Server::~Server() { stop_and_join(); }

void Server::start() {
  if (started_.exchange(true)) return;
  for (Worker& w : workers_) {
    w.thread = std::thread([this, &w] { worker_main(w); });
  }
}

void Server::stop_and_join() {
  request_stop();
  for (Worker& w : workers_) {
    if (w.thread.joinable()) w.thread.join();
  }
  // Whatever outlived the drain window gets cut off now; no worker is
  // left, so every table is ours alone. Fds handed to a worker that never
  // woke for them have no Conn; they are still registered and writable,
  // so polling each epoll lists them (a closed fd leaves its epoll).
  listener_.reset();
  for (Worker& w : workers_) {
    w.conns.clear();
    epoll_event evs[kEpollBatch];
    int n;
    while ((n = ::epoll_wait(w.epoll.get(), evs, kEpollBatch, 0)) > 0) {
      for (int i = 0; i < n; ++i) ::close(evs[i].data.fd);
    }
  }
  conn_count_.store(0, std::memory_order_relaxed);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  s.enq_ok = enq_ok_.load(std::memory_order_relaxed);
  s.deq_ok = deq_ok_.load(std::memory_order_relaxed);
  s.would_block = would_block_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  s.ledger_violations = ledger_violations_.load(std::memory_order_relaxed);
  s.ledger_outstanding = ledger_outstanding_.load(std::memory_order_relaxed);
  return s;
}

// ---- ledger --------------------------------------------------------------
// Multiset semantics: offer() increments a value's in-queue count BEFORE
// the try_enqueue, so by the time any dequeuer can observe the value the
// count is visible (the queue's own synchronization orders the two);
// deliver() decrements it. A delivery that finds no count is a violation:
// the queue handed out a value nobody put in (loss and duplication both
// surface as exactly this, on the value that was lost/duplicated).

bool Server::ledger_offer(std::uint64_t v) {
  if (!cfg_.ledger) return true;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  ++ledger_[v];
  ledger_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::ledger_retract(std::uint64_t v) {
  if (!cfg_.ledger) return;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  auto it = ledger_.find(v);
  if (it != ledger_.end() && it->second > 0) {
    if (--it->second == 0) ledger_.erase(it);
    ledger_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::ledger_deliver(std::uint64_t v) {
  if (!cfg_.ledger) return;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  auto it = ledger_.find(v);
  if (it == ledger_.end() || it->second == 0) {
    ledger_violations_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (--it->second == 0) ledger_.erase(it);
  ledger_outstanding_.fetch_sub(1, std::memory_order_relaxed);
}

// ---- event loop ----------------------------------------------------------

void Server::worker_main(Worker& w) {
  auto handle = queue_->make_handle();
  std::vector<std::uint8_t> rbuf(kReadBytes);
  epoll_event evs[kEpollBatch];
  bool listening = true;

  for (;;) {
    const bool stopping = stop_.load();
    if (stopping) {
      if (listening) {
        // Refuse new connects at once; the fd itself stays open until
        // stop_and_join, so no other worker's accept sees it recycled.
        ::epoll_ctl(w.epoll.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
        ::shutdown(listener_.get(), SHUT_RDWR);
        listening = false;
      }
      // Drain clock starts at the first post-stop iteration of any
      // worker; every worker then honours the same deadline.
      std::uint64_t expect = 0;
      drain_deadline_ns_.compare_exchange_strong(
          expect,
          Stopwatch::now_ns() +
              static_cast<std::uint64_t>(cfg_.drain_ms) * 1000000ull,
          std::memory_order_acq_rel);
      if (conn_count_.load() == 0) break;
      if (Stopwatch::now_ns() >=
          drain_deadline_ns_.load(std::memory_order_acquire)) {
        break;
      }
    }
    const int n = ::epoll_wait(w.epoll.get(), evs, kEpollBatch,
                               stopping ? kDrainWaitMs : kWaitMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == listener_.get()) {
        accept_ready();
      } else {
        serve(w, evs[i].data.fd, evs[i].events, *handle, rbuf);
      }
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN — backlog drained (EINVAL — listener shut down)
    }
    set_nodelay(fd);
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    // The count rises before the stop check (both seq_cst): a worker that
    // saw stop_ and then a zero count can leave, because this accept will
    // see stop_ and close the fd itself instead of handing it over.
    conn_count_.fetch_add(1);
    const Worker& owner =
        workers_[next_owner_.fetch_add(1, std::memory_order_relaxed) %
                 workers_.size()];
    if (stop_.load() ||
        !epoll_set(owner.epoll.get(), EPOLL_CTL_ADD, fd, kArmedAtAccept)) {
      ::close(fd);
      conn_count_.fetch_sub(1);
    }
  }
}

void Server::close_conn(Worker& w, int fd) {
  w.conns[static_cast<std::size_t>(fd)].reset();  // close leaves the epoll
  conn_count_.fetch_sub(1);
}

// Executes buffered frames while the unsent output is below the mark;
// true when the parser holds no complete frame any more.
bool Server::execute_buffered(Conn& c, workload::DynQueue::Handle& h) {
  Frame f;
  while (c.parser.error() == nullptr) {
    if (c.out.size() >= kOutHighWater) return false;
    const FrameParser::Result res = c.parser.next(f);
    if (res == FrameParser::Result::kFrame) {
      execute(f, c, h);
    } else if (res == FrameParser::Result::kNeedMore) {
      break;
    } else {
      // Framing is gone: tell the peer why, then hang up. The BAD_FRAME
      // answer is best-effort — the flush may or may not land it.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      append_frame(c.out, Op::kPing, Status::kBadFrame, 0, nullptr, 0);
    }
  }
  return true;
}

void Server::serve(Worker& w, int fd, std::uint32_t events,
                   workload::DynQueue::Handle& h,
                   std::vector<std::uint8_t>& rbuf) {
  const std::size_t slot = static_cast<std::size_t>(fd);
  if (slot >= w.conns.size()) w.conns.resize(slot + 1);
  if (w.conns[slot] == nullptr) w.conns[slot] = std::make_unique<Conn>(fd);
  Conn& c = *w.conns[slot];
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 || !c.flush()) {
    close_conn(w, fd);
    return;
  }
  // Frames held back by the mark go first. Then at most one read: every
  // other connection of this worker gets its turn before this one reads
  // again, and a peer that does not read its answers stops being read.
  bool drained = execute_buffered(c, h);
  if (drained && c.reading() && c.out.size() < kOutHighWater &&
      (events & EPOLLIN) != 0) {
    const ssize_t r = ::read(fd, rbuf.data(), rbuf.size());
    if (r > 0) {
      c.parser.feed(rbuf.data(), static_cast<std::size_t>(r));
      drained = execute_buffered(c, h);
    } else if (r == 0) {
      c.eof = true;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      close_conn(w, fd);
      return;
    }
  }
  if (!c.flush()) {
    close_conn(w, fd);
    return;
  }
  // Half-close or bad frame: finish what we owe, then close.
  const bool reading = c.reading();
  if (!reading && drained && c.out.empty()) {
    close_conn(w, fd);
    return;
  }
  // Read while answers flow; wait for writability while output is
  // pending or frames are held back. Level-triggered, so the interest
  // changes only on these transitions.
  const std::uint32_t want =
      (reading && drained && c.out.size() < kOutHighWater ? EPOLLIN : 0u) |
      (!drained || !c.out.empty() ? EPOLLOUT : 0u);
  if (want != c.armed) {
    if (!epoll_set(w.epoll.get(), EPOLL_CTL_MOD, fd, want)) {
      close_conn(w, fd);
      return;
    }
    c.armed = want;
  }
}

void Server::execute(const Frame& f, Conn& c, workload::DynQueue::Handle& h) {
  frames_rx_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count(telemetry::Counter::k_net_frames_rx);

  switch (f.op) {
    case Op::kEnq: {
      telemetry::count(telemetry::Counter::k_net_batch_items, f.count);
      // Bulk path: the whole frame is offered to the ledger, handed to
      // the queue as bulk enqueues (the amortization the wire batch was
      // designed for; one call unless a ring cuts the batch), and the
      // refused suffix retracted.
      for (std::uint16_t i = 0; i < f.count; ++i) ledger_offer(f.values[i]);
      const std::uint16_t accepted =
          whole_batch(f.count, [&](std::size_t i, std::size_t m) {
            return h.try_enqueue_bulk(f.values.data() + i, m);
          });
      for (std::uint16_t i = accepted; i < f.count; ++i) {
        ledger_retract(f.values[i]);
      }
      enq_ok_.fetch_add(accepted, std::memory_order_relaxed);
      const Status st =
          accepted == f.count ? Status::kOk : Status::kWouldBlock;
      if (st == Status::kWouldBlock) {
        would_block_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::Counter::k_net_would_block);
      }
      append_frame(c.out, Op::kEnq, st, accepted, nullptr, 0);
      break;
    }
    case Op::kDeq: {
      telemetry::count(telemetry::Counter::k_net_batch_items, f.count);
      std::uint64_t vals[kMaxBatch];
      // Bulk path: bulk dequeues fill the response.
      const std::uint16_t got =
          whole_batch(f.count, [&](std::size_t i, std::size_t m) {
            return h.try_dequeue_bulk(vals + i, m);
          });
      // Delivery window (docs/server.md): each value is ledger_delivered
      // HERE, before the response frame is flushed — a connection that
      // dies in between loses it client-side.
      for (std::uint16_t i = 0; i < got; ++i) ledger_deliver(vals[i]);
      deq_ok_.fetch_add(got, std::memory_order_relaxed);
      const Status st = got == f.count ? Status::kOk : Status::kWouldBlock;
      if (st == Status::kWouldBlock) {
        would_block_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::Counter::k_net_would_block);
      }
      append_frame(c.out, Op::kDeq, st, got, vals, got);
      break;
    }
    case Op::kPing: {
      append_frame(c.out, Op::kPing, Status::kOk, 0, nullptr, 0);
      break;
    }
    case Op::kStat: {
      const ServerStats s = stats();
      const std::uint64_t vals[ServerStats::kStatValues] = {
          s.frames_rx,       s.enq_ok,         s.deq_ok,
          s.would_block,     s.bad_frames,     s.conns_accepted,
          s.ledger_violations, s.ledger_outstanding};
      append_frame(c.out, Op::kStat, Status::kOk, ServerStats::kStatValues,
                   vals, ServerStats::kStatValues);
      break;
    }
  }
}

}  // namespace net
}  // namespace membq
