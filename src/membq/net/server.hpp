// membq_server core: N worker threads serving the wire protocol
// (protocol.hpp) over any registry queue.
//
// Shape: each worker owns an epoll instance and, for life, the
// connections registered in it. The one listener sits in every worker's
// epoll with EPOLLEXCLUSIVE; the worker it wakes accepts and hands each
// new fd to worker `k++ mod N` with one EPOLL_CTL_ADD. Only the owner ever
// creates or touches a connection's state, so nothing per connection
// crosses threads and a connection's frames are answered in order.
// Connections are level-triggered: a wakeup reads once, executes the
// complete frames, writes the answers, and changes its epoll interest
// only on its first wakeup and when output starts or stops pending or
// crosses the high-water mark.
//
// Bounds (docs/server.md): a connection executes frames only while its
// unsent output is below kOutHighWater, and reads only when its parser
// holds no complete frame and the output is below the mark. Otherwise it
// stops reading, so TCP pushes back on a peer that does not read its
// answers; and since a wakeup reads at most one buffer per connection, a
// flooding connection cannot keep its worker from the others.
//
// Backpressure contract: a bounded queue's full/empty verdict is mapped
// to an explicit WOULD_BLOCK response — an ENQ answer whose accepted
// count fell short of the batch, or a DEQ answer with fewer values than
// asked. Retrying is the client's job; the server never waits on the
// queue.
//
// Exactly-once ledger (--ledger): a mutex-guarded multiset of in-queue
// values, incremented before a value is offered to the queue and
// decremented when a dequeue delivers it. A delivery that finds no
// matching enqueue is a violation (double delivery or loss manifests
// here); outstanding counts are the queue backlog. This is a checking
// mode for E2E runs — it serializes ledger updates, so perf runs leave it
// off.
//
// Shutdown: request_stop() (async-signal-safe) flips a flag; workers stop
// accepting, keep serving established connections until they close or
// `drain_ms` passes, flush what they owe, then exit. stop_and_join()
// force-closes whatever outlived the drain window.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "workload/registry.hpp"

namespace membq {
namespace net {

struct ServerConfig {
  std::string queue = "sharded(vyukov,4)";  // any registry row name
  std::size_t capacity = 1024;
  std::size_t workers = 2;
  std::uint16_t port = 0;    // 0 = kernel-assigned; Server::port() tells
  bool ledger = false;       // exactly-once delivery accounting
  unsigned drain_ms = 5000;  // how long shutdown waits for conns to close
};

// Monotonic totals since start. The STAT op returns exactly this vector,
// in this order (docs/server.md pins the indices).
struct ServerStats {
  std::uint64_t frames_rx = 0;     // complete frames executed
  std::uint64_t enq_ok = 0;        // values accepted into the queue
  std::uint64_t deq_ok = 0;        // values delivered out of the queue
  std::uint64_t would_block = 0;   // responses sent with WOULD_BLOCK
  std::uint64_t bad_frames = 0;    // connections killed by framing errors
  std::uint64_t conns_accepted = 0;
  std::uint64_t ledger_violations = 0;  // deliveries with no matching enq
  std::uint64_t ledger_outstanding = 0; // values currently in the queue

  static constexpr std::size_t kStatValues = 8;
};

class Server {
 public:
  // Binds the listener, builds the queue and the workers' epoll
  // instances; throws std::runtime_error on an unknown queue name or a
  // socket/epoll failure. No threads yet.
  explicit Server(const ServerConfig& cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  void start();  // spawn the worker pool (idempotent)

  // Begin shutdown without blocking: stop accepting, start the drain
  // clock. Safe from a signal handler (one atomic store).
  void request_stop() noexcept { stop_.store(true); }

  // request_stop() + wait for the workers; force-closes connections that
  // outlive the drain window. Idempotent.
  void stop_and_join();

  ServerStats stats() const;

 private:
  struct Conn;
  struct Worker;

  void worker_main(Worker& w);
  void accept_ready();
  void serve(Worker& w, int fd, std::uint32_t events,
             workload::DynQueue::Handle& h, std::vector<std::uint8_t>& rbuf);
  bool execute_buffered(Conn& c, workload::DynQueue::Handle& h);
  void execute(const struct Frame& f, Conn& c, workload::DynQueue::Handle& h);
  void close_conn(Worker& w, int fd);

  bool ledger_offer(std::uint64_t v);       // count++ before try_enqueue
  void ledger_retract(std::uint64_t v);     // failed enqueue: undo
  void ledger_deliver(std::uint64_t v);     // successful dequeue: count--

  ServerConfig cfg_;
  std::unique_ptr<workload::DynQueue> queue_;
  Fd listener_;
  std::uint16_t port_ = 0;

  std::vector<Worker> workers_;  // sized once, at construction
  std::atomic<std::size_t> next_owner_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> drain_deadline_ns_{0};
  std::atomic<std::size_t> conn_count_{0};

  mutable std::mutex ledger_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> ledger_;  // value -> in-queue count
  std::atomic<std::uint64_t> ledger_outstanding_{0};

  std::atomic<std::uint64_t> frames_rx_{0}, enq_ok_{0}, deq_ok_{0},
      would_block_{0}, bad_frames_{0}, conns_accepted_{0},
      ledger_violations_{0};
};

}  // namespace net
}  // namespace membq
