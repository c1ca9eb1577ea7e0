// Model-based coverage for EVERY queue in the registry, driven by the
// shared harness in model_checker.hpp:
//   * single-handle randomized runs checked exactly against a std::deque
//     reference model (several seeds per queue);
//   * real-thread histories judged by the Wing–Gong bounded-queue
//     checker;
//   * a coverage test that cross-checks this file's table against
//     workload::all_queues(), so adding a registry row without model
//     coverage fails the suite instead of slipping through.
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/michael_scott.hpp"
#include "baselines/mutex_ring.hpp"
#include "baselines/role_rings.hpp"
#include "baselines/scq_ring.hpp"
#include "baselines/spsc_ring.hpp"
#include "baselines/vyukov_queue.hpp"
#include "core/lockfree_optimal_queue.hpp"
#include "core/optimal_queue.hpp"
#include "model_checker.hpp"
#include "queues/dcss_queue.hpp"
#include "queues/distinct_queue.hpp"
#include "queues/llsc_queue.hpp"
#include "queues/lockfree_segment_queue.hpp"
#include "queues/segment_queue.hpp"
#include "sharded/sharded_queue.hpp"
#include "workload/registry.hpp"

namespace {

using membq::model::Values;

// One row per registry queue: how to build it, and whether its contract
// restricts it to distinct values (L2's assumption). The harness runs
// the distinct-values checks on every row and the repeating-values
// checks — the expected-side ABA stress — on every row that allows them.
struct ModelRow {
  std::string name;
  std::function<void(std::size_t cap, std::uint64_t seed, std::size_t ops,
                     Values values)>
      run_model;
  std::function<void(std::size_t cap, std::size_t threads,
                     std::size_t ops_per_thread,
                     std::initializer_list<std::uint64_t> seeds,
                     Values values)>
      run_histories;
  // Bulk-op replay (item-sequence semantics against the same reference;
  // see model_checker.hpp). Every row must provide one — the coverage
  // guard asserts it, so a queue cannot grow a bulk path (or rely on the
  // generic fallback) without model coverage.
  std::function<void(std::size_t cap, std::uint64_t seed, std::size_t ops,
                     std::size_t max_batch)>
      run_bulk;
  bool distinct_values_only = false;
};

template <class Q, class MakeFn>
ModelRow make_row(std::string name, MakeFn make,
                  bool distinct_values_only = false) {
  ModelRow row;
  row.name = name;
  row.run_model = [make](std::size_t cap, std::uint64_t seed,
                         std::size_t ops, Values values) {
    auto q = make(cap);
    membq::model::check_against_model(*q, cap, seed, ops, values);
  };
  row.run_bulk = [make](std::size_t cap, std::uint64_t seed,
                        std::size_t ops, std::size_t max_batch) {
    auto q = make(cap);
    membq::model::check_bulk_against_model(*q, cap, seed, ops, max_batch);
  };
  row.run_histories = [make](std::size_t cap, std::size_t threads,
                             std::size_t ops_per_thread,
                             std::initializer_list<std::uint64_t> seeds,
                             Values values) {
    membq::model::expect_linearizable_histories(
        [&] { return make(cap); }, cap, threads, ops_per_thread, seeds,
        values);
  };
  row.distinct_values_only = distinct_values_only;
  return row;
}

// Handles per queue instance: one model handle, or `threads` recorder
// handles — provision a little headroom everywhere.
constexpr std::size_t kThreads = 8;

// Sharded rows carry the relaxed-FIFO contract, not linearizability
// (docs/sharding.md): the deque replay becomes the per-shard-deques
// replay and the Wing–Gong judgement becomes the exactly-once / no-loss
// / per-producer-per-shard-FIFO ledger. Same two attack angles, the
// contract the row actually makes.
template <class Base, class MakeShard>
ModelRow make_sharded_row(std::string name, MakeShard make_shard) {
  using SQ = membq::sharded::ShardedQueue<Base>;
  static constexpr std::size_t kShards = 4;
  // The runner's tiny caps (2, 4) are meant to hammer the full/empty
  // boundaries; for a sharded row the boundary lives per shard, so `cap`
  // scales to a PER-SHARD capacity. That also keeps every shard ≥ 2
  // slots — per-slot-sequence bases (Vyukov) are unsound at 1 (the
  // round encodings collide; see sharded_queue.hpp).
  auto make = [make_shard](std::size_t cap) {
    return std::make_unique<SQ>(cap * kShards, kShards, make_shard);
  };
  ModelRow row;
  row.name = std::move(name);
  row.run_model = [make](std::size_t cap, std::uint64_t seed,
                         std::size_t ops, Values values) {
    auto q = make(cap);
    membq::model::check_sharded_against_model(*q, seed, ops, values);
  };
  row.run_bulk = [make](std::size_t cap, std::uint64_t seed,
                        std::size_t ops, std::size_t max_batch) {
    auto q = make(cap);
    membq::model::check_sharded_bulk(*q, seed, ops, max_batch);
  };
  row.run_histories = [make](std::size_t cap, std::size_t threads,
                             std::size_t ops_per_thread,
                             std::initializer_list<std::uint64_t> seeds,
                             Values) {
    // The relaxed ledger identifies values by (producer, seq), so it
    // always generates its own distinct values, whatever the mode.
    for (std::uint64_t seed : seeds) {
      auto q = make(cap);
      membq::model::check_sharded_relaxed_fifo(*q, threads,
                                               ops_per_thread * 64, seed);
    }
  };
  return row;
}

std::vector<ModelRow> model_rows() {
  using membq::reclaim::EpochDomain;
  using membq::reclaim::HazardDomain;
  std::vector<ModelRow> rows;
  rows.push_back(make_row<membq::OptimalQueue>(
      "optimal(L5)", [](std::size_t c) {
        return std::make_unique<membq::OptimalQueue>(c, kThreads);
      }));
  // One class under both registry spellings of the lock-free L5.
  for (const char* name : {"optimal(L5,lf,ebr)", "optimal(L5,lf,hp)"}) {
    rows.push_back(make_row<membq::LockFreeOptimalQueue>(
        name, [](std::size_t c) {
          return std::make_unique<membq::LockFreeOptimalQueue>(c, kThreads);
        }));
  }
  rows.push_back(make_row<membq::DistinctQueue>(
      "distinct(L2)",
      [](std::size_t c) { return std::make_unique<membq::DistinctQueue>(c); },
      /*distinct_values_only=*/true));
  rows.push_back(make_row<membq::LlscQueue>(
      "llsc(L3)",
      [](std::size_t c) { return std::make_unique<membq::LlscQueue>(c); }));
  rows.push_back(make_row<membq::DcssQueue>(
      "dcss(L4)", [](std::size_t c) {
        return std::make_unique<membq::DcssQueue>(c, kThreads);
      }));
  rows.push_back(make_row<membq::SegmentQueue>(
      "segment(L1)", [](std::size_t c) {
        return std::make_unique<membq::SegmentQueue>(c, /*seg_size=*/0,
                                                     kThreads);
      }));
  rows.push_back(make_row<membq::LockFreeSegmentQueue<EpochDomain>>(
      "segment(L1,ebr)", [](std::size_t c) {
        return std::make_unique<membq::LockFreeSegmentQueue<EpochDomain>>(
            c, /*seg_size=*/0, kThreads);
      }));
  rows.push_back(make_row<membq::LockFreeSegmentQueue<HazardDomain>>(
      "segment(L1,hp)", [](std::size_t c) {
        return std::make_unique<membq::LockFreeSegmentQueue<HazardDomain>>(
            c, /*seg_size=*/0, kThreads);
      }));
  rows.push_back(make_row<membq::VyukovQueue>(
      "vyukov(perslot-seq)",
      [](std::size_t c) { return std::make_unique<membq::VyukovQueue>(c); }));
  rows.push_back(make_row<membq::ScqRing>(
      "scq(faa-ring)",
      [](std::size_t c) { return std::make_unique<membq::ScqRing>(c); }));
  rows.push_back(make_row<membq::MichaelScottQueue>(
      "michael-scott", [](std::size_t c) {
        return std::make_unique<membq::MichaelScottQueue>(c, kThreads);
      }));
  rows.push_back(make_row<membq::MutexRing>(
      "mutex(seq+lock)",
      [](std::size_t c) { return std::make_unique<membq::MutexRing>(c); }));
  rows.push_back(make_sharded_row<membq::VyukovQueue>(
      "sharded(vyukov,4)", [](std::size_t per_shard) {
        return std::make_unique<membq::VyukovQueue>(per_shard);
      }));
  rows.push_back(
      make_sharded_row<membq::LockFreeSegmentQueue<EpochDomain>>(
          "sharded(segment-ebr,4)", [](std::size_t per_shard) {
            return std::make_unique<
                membq::LockFreeSegmentQueue<EpochDomain>>(
                per_shard, /*seg_size=*/0, kThreads);
          }));
  return rows;
}

// Every registry row must have a model row — a new queue cannot land
// without model-based coverage.
TEST(ModelCheckerTest, CoversEveryRegistryQueue) {
  std::set<std::string> covered;
  for (const auto& row : model_rows()) {
    covered.insert(row.name);
    // Bulk ops are part of every queue's surface now (natively or via
    // the generic fallback), so every row must carry bulk replay too.
    EXPECT_TRUE(static_cast<bool>(row.run_bulk))
        << "model row '" << row.name << "' has no bulk-op replay";
  }
  for (const auto& spec : membq::workload::all_queues(kThreads)) {
    EXPECT_TRUE(covered.count(spec.name))
        << "registry queue '" << spec.name
        << "' has no model-checker row in test_model_checker.cpp";
  }
}

// Bulk ops replayed as item sequences: batches larger than the tiny
// capacity force the clamped-prefix paths, the cap-16 run walks longer
// in-order stretches through each queue's native reservation code.
TEST(ModelCheckerTest, BulkOpsMatchDequeModel) {
  for (const auto& row : model_rows()) {
    SCOPED_TRACE(row.name);
    for (std::uint64_t seed : {51ull, 52ull}) {
      row.run_bulk(4, seed, 2500, /*max_batch=*/6);
    }
    row.run_bulk(16, 61, 3000, /*max_batch=*/5);
  }
}

TEST(ModelCheckerTest, SingleHandleMatchesDequeModel) {
  for (const auto& row : model_rows()) {
    SCOPED_TRACE(row.name);
    // Tiny capacity visits full/empty constantly; the larger one walks
    // longer runs between boundary hits.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      row.run_model(4, seed, 4000, Values::kDistinct);
    }
    row.run_model(16, 21, 6000, Values::kDistinct);
  }
}

TEST(ModelCheckerTest, SingleHandleMatchesDequeModelRepeatingValues) {
  // Repeated values in the same cell are the expected-side ABA that
  // round-versioned bottoms cannot guard; every queue without L2's
  // distinct-values assumption must shrug them off.
  for (const auto& row : model_rows()) {
    if (row.distinct_values_only) continue;
    SCOPED_TRACE(row.name);
    for (std::uint64_t seed : {31ull, 32ull}) {
      row.run_model(2, seed, 3000, Values::kRepeating);
    }
  }
}

TEST(ModelCheckerTest, RecordedHistoriesLinearizable) {
  for (const auto& row : model_rows()) {
    SCOPED_TRACE(row.name);
    row.run_histories(2, 3, 6, {1, 2, 3}, Values::kDistinct);
  }
}

TEST(ModelCheckerTest, RecordedHistoriesLinearizableRepeatingValues) {
  for (const auto& row : model_rows()) {
    if (row.distinct_values_only) continue;
    SCOPED_TRACE(row.name);
    row.run_histories(2, 3, 6, {41, 42}, Values::kRepeating);
  }
}

// michael-scott's full verdict reads tail.pos - head.pos at one instant
// and its empty verdict reads head->next, so neither counts a pending
// enqueue. C=2 keeps the queue at its bound through most of the run.
TEST(MichaelScottTest, RecordedHistoriesLinearizable) {
  membq::model::expect_linearizable_histories(
      [] { return std::make_unique<membq::MichaelScottQueue>(2, kThreads); },
      /*capacity=*/2, /*threads=*/3, /*ops_per_thread=*/6,
      {21, 22, 23, 24, 25});
}

// ---- Role rings (SPSC / MPSC / SPMC) ------------------------------------
//
// Not registry rows (the registry drives unrestricted MPMC mixes, which
// their role contracts forbid), so the CoversEveryRegistryQueue guard
// cannot see them — this is the coverage gap PR 4 carved out. They get
// the same two attack angles here, with Role-restricted recording:
// exactly one consumer thread for MPSC, one producer for SPMC, one of
// each for SPSC.

using membq::model::Role;

struct RoleRow {
  std::string name;
  std::function<void(std::size_t cap, std::uint64_t seed, std::size_t ops,
                     Values values)>
      run_model;
  std::function<void(std::size_t cap, std::size_t ops_per_thread,
                     std::initializer_list<std::uint64_t> seeds,
                     Values values)>
      run_histories;
};

template <class Q, class MakeFn>
RoleRow make_role_row(std::string name, MakeFn make,
                      std::vector<Role> roles) {
  RoleRow row;
  row.name = name;
  // Single handle = one thread holding both roles: within every role
  // contract, and exactly the sequential-spec replay the MPMC rows get.
  row.run_model = [make](std::size_t cap, std::uint64_t seed,
                         std::size_t ops, Values values) {
    auto q = make(cap);
    membq::model::check_against_model(*q, cap, seed, ops, values);
  };
  row.run_histories = [make, roles](
                          std::size_t cap, std::size_t ops_per_thread,
                          std::initializer_list<std::uint64_t> seeds,
                          Values values) {
    membq::model::expect_linearizable_histories(
        [&] { return make(cap); }, cap, roles.size(), ops_per_thread, seeds,
        values, roles);
  };
  return row;
}

std::vector<RoleRow> role_rows() {
  std::vector<RoleRow> rows;
  rows.push_back(make_role_row<membq::SpscRing>(
      "spsc(lamport)",
      [](std::size_t c) { return std::make_unique<membq::SpscRing>(c); },
      {Role::kProducer, Role::kConsumer}));
  rows.push_back(make_role_row<membq::MpscRing>(
      "mpsc(ring)",
      [](std::size_t c) { return std::make_unique<membq::MpscRing>(c); },
      {Role::kConsumer, Role::kProducer, Role::kProducer}));
  rows.push_back(make_role_row<membq::SpmcRing>(
      "spmc(ring)",
      [](std::size_t c) { return std::make_unique<membq::SpmcRing>(c); },
      {Role::kProducer, Role::kConsumer, Role::kConsumer}));
  return rows;
}

TEST(ModelCheckerTest, RoleRingsSingleHandleMatchDequeModel) {
  for (const auto& row : role_rows()) {
    SCOPED_TRACE(row.name);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      row.run_model(4, seed, 4000, Values::kDistinct);
    }
    row.run_model(16, 21, 6000, Values::kDistinct);
    // No distinct-values contract on any role ring: repeating values are
    // legal inputs and stress the wrapped-slot paths.
    for (std::uint64_t seed : {31ull, 32ull}) {
      row.run_model(2, seed, 3000, Values::kRepeating);
    }
  }
}

TEST(ModelCheckerTest, RoleRingsRecordedHistoriesLinearizable) {
  for (const auto& row : role_rows()) {
    SCOPED_TRACE(row.name);
    row.run_histories(2, 6, {1, 2, 3}, Values::kDistinct);
    row.run_histories(2, 6, {41, 42}, Values::kRepeating);
  }
}

// The role-ring list above must cover exactly the role-contract rings the
// benches drive (bench_throughput's E12 series) — a rename or addition
// there without model coverage here fails, mirroring the registry guard.
TEST(ModelCheckerTest, CoversEveryRoleRing) {
  std::set<std::string> covered;
  for (const auto& row : role_rows()) covered.insert(row.name);
  for (const char* name :
       {membq::SpscRing::kName, membq::MpscRing::kName,
        membq::SpmcRing::kName}) {
    EXPECT_TRUE(covered.count(name))
        << "role ring '" << name
        << "' has no model-checker row in test_model_checker.cpp";
  }
}

}  // namespace
