// The queue set, written once: every registry row and every role ring,
// with what each consumer needs to know about it. The registry
// (all_queues, make_queue_by_name, queue_names), E9's claimed classes,
// E12's role-ring block and the per-row test suites all iterate these two
// lists, so adding or deleting a row is one entry here (plus a re-bless of
// E9's golden, whose lines name the rows).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>

#include "baselines/michael_scott.hpp"
#include "baselines/mutex_ring.hpp"
#include "baselines/role_rings.hpp"
#include "baselines/scq_ring.hpp"
#include "baselines/spsc_ring.hpp"
#include "baselines/vyukov_queue.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "core/optimal_queue.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "queues/segment_queue.hpp"
#include "sharded/sharded_queue.hpp"
#include "sync/llsc.hpp"

namespace membq {
namespace workload {

// What a row's threaded runs are held to. It is part of the row's type,
// so a check picks its harness at compile time: the relaxed harness reads
// the sharded router's per-shard state.
enum class Contract {
  kLinearizable,  // the sequential bounded FIFO queue
  kRelaxedFifo,   // exactly-once, no loss, per-producer-per-shard FIFO
                  // (docs/sharding.md)
};

// The values a row may be given.
enum class ValueDomain {
  kAny,       // repeating values too
  kDistinct,  // every value enqueued once: distinct(L2)'s assumption
};

// E9's claimed classes. Θ(1), Θ(T) and Θ(C) name a metrics::ThetaClass,
// and E9 checks them. L1's Θ(C/K + T·K) and michael-scott's node per
// element, Θ(n), name none, so E9 prints those rows as "(composite)".
inline constexpr char kThetaOne[] = "Theta(1)";
inline constexpr char kThetaT[] = "Theta(T)";
inline constexpr char kThetaC[] = "Theta(C)";
inline constexpr char kThetaL1[] = "Theta(C/K+TK)";
inline constexpr char kThetaN[] = "Theta(n)";

inline bool composite_claim(const char* claim) {
  return std::strcmp(claim, kThetaL1) == 0 || std::strcmp(claim, kThetaN) == 0;
}

inline std::size_t no_aux(std::size_t, std::size_t) { return 0; }

// One row. make(C, T, K) builds a queue of capacity C with T handle slots
// (the Θ(T)-sized designs and the SMR domains; the mutex L1's segment
// pool) and segment size K (the L1 rows; 0 picks ⌊√C⌋). A queue that takes
// no T or no K ignores it.
template <class Q, Contract kContract = Contract::kLinearizable>
struct Row {
  using Queue = Q;
  static constexpr Contract contract = kContract;

  const char* name;
  std::unique_ptr<Q> (*make)(std::size_t c, std::size_t t, std::size_t k);
  const char* claim;  // E9's claimed class; the role rings are not in E9
  ValueDomain values = ValueDomain::kAny;
  // Bytes E9 reports beside the overhead, not in it: the LL/SC emulation
  // stamps, which the paper's model does not charge.
  std::size_t (*aux)(std::size_t c, std::size_t t) = no_aux;
  // The role rings' restrictions: a role that admits one thread only.
  bool single_producer = false;
  bool single_consumer = false;
};

template <class Q>
std::unique_ptr<Q> make_c(std::size_t c, std::size_t, std::size_t) {
  return std::make_unique<Q>(c);
}

template <class Q>
std::unique_ptr<Q> make_ct(std::size_t c, std::size_t t, std::size_t) {
  return std::make_unique<Q>(c, t);
}

// The L1 rows take (C, K, T).
template <class Q>
std::unique_ptr<Q> make_ckt(std::size_t c, std::size_t t, std::size_t k) {
  return std::make_unique<Q>(c, k, t);
}

// Shard count of the sharded rows (part of their names).
inline constexpr std::size_t kShards = 4;

template <class Base,
          std::unique_ptr<Base> (*kMakeShard)(std::size_t, std::size_t,
                                              std::size_t)>
std::unique_ptr<sharded::ShardedQueue<Base>> make_sharded(std::size_t c,
                                                          std::size_t t,
                                                          std::size_t k) {
  return std::make_unique<sharded::ShardedQueue<Base>>(
      c, kShards,
      [t, k](std::size_t per_shard) { return kMakeShard(per_shard, t, k); });
}

// The registry rows, in E9's order: the nine queues of the paper's table
// (L5, L2, L3, L4, L1, then the baselines vyukov, scq, michael-scott and
// mutex), with the lock-free L5's two names right after the combining L5,
// the lock-free L1 rows right after the mutex L1, and the sharded rows at
// the end. visit(row) runs once per row.
template <class Visit>
void for_each_row(Visit&& visit) {
  // The combining L5 is blocking, so the paper's non-blocking bound does
  // not apply to it; it stays as the baseline row.
  visit(Row<OptimalQueue>{OptimalQueue::kName, make_ct<OptimalQueue>,
                          kThetaT});

  // The lock-free L5 (readElem/findOp announcements): one class under two
  // names, kept until the benchmark panel collapses them. One record per
  // handle slot, recycled by sequence and never retired, so it leaves no
  // reclamation backlog.
  for (const char* name : {"optimal(L5,lf,ebr)", "optimal(L5,lf,hp)"}) {
    visit(Row<LockFreeOptimalQueue>{name, make_ct<LockFreeOptimalQueue>,
                                    kThetaT});
  }

  visit(Row<DistinctQueue>{DistinctQueue::kName, make_c<DistinctQueue>,
                           kThetaOne, ValueDomain::kDistinct});

  visit(Row<LlscQueue>{LlscQueue::kName, make_c<LlscQueue>, kThetaOne,
                       ValueDomain::kAny, [](std::size_t c, std::size_t) {
                         return c * LLSCCell::emulation_overhead_bytes();
                       }});

  visit(Row<DcssQueue>{DcssQueue::kName, make_ct<DcssQueue>, kThetaT});

  visit(Row<SegmentQueue>{SegmentQueue::kName, make_ckt<SegmentQueue>,
                          kThetaL1});

  // The lock-free L1, one row per reclamation backend. Its SMR backlog is
  // reported in its own column and left out of the class.
  visit(Row<EbrSegmentQueue>{EbrSegmentQueue::kName,
                             make_ckt<EbrSegmentQueue>, kThetaL1});
  visit(Row<HpSegmentQueue>{HpSegmentQueue::kName, make_ckt<HpSegmentQueue>,
                            kThetaL1});

  visit(Row<VyukovQueue>{VyukovQueue::kName, make_c<VyukovQueue>, kThetaC});
  visit(Row<ScqRing>{ScqRing::kName, make_c<ScqRing>, kThetaC});
  visit(Row<MichaelScottQueue>{MichaelScottQueue::kName,
                               make_ct<MichaelScottQueue>, kThetaN});
  visit(Row<MutexRing>{MutexRing::kName, make_c<MutexRing>, kThetaOne});

  // The sharded layer: kShards shards of a base row behind the affinity /
  // ring-order spill-and-steal router, over the fastest Θ(C) ring and the
  // lock-free composite-class chain. A constant N keeps the base's class
  // (N × Θ(C/N) = Θ(C)).
  visit(Row<sharded::ShardedQueue<VyukovQueue>, Contract::kRelaxedFifo>{
      "sharded(vyukov,4)", make_sharded<VyukovQueue, make_c<VyukovQueue>>,
      kThetaC});
  visit(Row<sharded::ShardedQueue<EbrSegmentQueue>, Contract::kRelaxedFifo>{
      "sharded(segment-ebr,4)",
      make_sharded<EbrSegmentQueue, make_ckt<EbrSegmentQueue>>, kThetaL1});
}

template <class Q>
Row<Q> role_row(bool single_producer, bool single_consumer) {
  Row<Q> row{Q::kName, make_c<Q>, nullptr};
  row.single_producer = single_producer;
  row.single_consumer = single_consumer;
  return row;
}

// The role rings. Each admits only one producer thread, one consumer
// thread or both, so they stay out of the registry, whose mixes run every
// thread in both roles.
template <class Visit>
void for_each_role_row(Visit&& visit) {
  visit(role_row<SpscRing>(/*single_producer=*/true, /*single_consumer=*/true));
  visit(role_row<MpscRing>(false, true));
  visit(role_row<SpmcRing>(true, false));
}

}  // namespace workload
}  // namespace membq
