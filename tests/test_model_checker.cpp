// Model-based coverage for every row and role ring of workload/rows.hpp,
// one instance per (check, row), driven by the shared harness in
// model_checker.hpp:
//   * single-handle randomized runs checked exactly against a std::deque
//     reference model (several seeds per row), item by item and in bulk;
//   * real-thread histories judged by the Wing–Gong bounded-queue
//     checker.
// The row's contract picks the harness. A relaxed-FIFO row (sharded) gets
// the per-shard-deques replay and the exactly-once / no-loss /
// per-producer-per-shard-FIFO ledger instead (docs/sharding.md): the same
// two attack angles, against the contract the row makes. A role ring
// records with one thread per single role, so its contract holds.
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/michael_scott.hpp"
#include "model_checker.hpp"
#include "queue_rows.hpp"

namespace {

using membq::model::Role;
using membq::model::Values;
using membq::rows_test::capacity_for;
using membq::rows_test::kAnyRow;
using membq::rows_test::row_id;
using membq::rows_test::rows_where;
using membq::rows_test::visit_row;
using membq::workload::Contract;

// Handles per queue instance: one model handle, or up to three recorder
// handles — provision a little headroom everywhere.
constexpr std::size_t kThreads = 8;

template <class R>
constexpr bool relaxed = R::contract == Contract::kRelaxedFifo;

// The runner's tiny caps (2, 4) hammer the full/empty boundaries; a
// relaxed row's boundary lives per shard, so there `cap` is per shard
// (capacity_for).
template <class R>
auto make_queue(R row, std::size_t cap) {
  return row.make(capacity_for<R>(cap), kThreads, /*seg_size=*/0);
}

template <class R>
void replay(R row, std::size_t cap, std::uint64_t seed, std::size_t ops,
            Values values) {
  auto q = make_queue(row, cap);
  if constexpr (relaxed<R>) {
    membq::model::check_sharded_against_model(*q, seed, ops, values);
  } else {
    membq::model::check_against_model(*q, cap, seed, ops, values);
  }
}

template <class R>
void replay_bulk(R row, std::size_t cap, std::uint64_t seed, std::size_t ops,
                 std::size_t max_batch) {
  auto q = make_queue(row, cap);
  if constexpr (relaxed<R>) {
    membq::model::check_sharded_bulk(*q, seed, ops, max_batch);
  } else {
    membq::model::check_bulk_against_model(*q, cap, seed, ops, max_batch);
  }
}

// `threads` threads of `ops_per_thread` operations; a role ring runs one
// thread per single role and two per role that admits many instead.
template <class R>
void record_histories(R row, std::size_t cap, std::size_t threads,
                      std::size_t ops_per_thread,
                      std::initializer_list<std::uint64_t> seeds,
                      Values values) {
  if constexpr (relaxed<R>) {
    // The relaxed ledger identifies values by (producer, seq), so it
    // always generates its own distinct values, whatever the mode.
    for (std::uint64_t seed : seeds) {
      auto q = make_queue(row, cap);
      membq::model::check_sharded_relaxed_fifo(*q, threads,
                                               ops_per_thread * 64, seed);
    }
  } else {
    std::vector<Role> roles;
    if (row.single_producer || row.single_consumer) {
      if (row.single_producer) roles.push_back(Role::kProducer);
      if (row.single_consumer) roles.push_back(Role::kConsumer);
      if (!row.single_producer) roles.insert(roles.end(), 2, Role::kProducer);
      if (!row.single_consumer) roles.insert(roles.end(), 2, Role::kConsumer);
    }
    membq::model::expect_linearizable_histories(
        [&] { return make_queue(row, cap); }, cap,
        roles.empty() ? threads : roles.size(), ops_per_thread, seeds, values,
        roles);
  }
}

class ModelCheckerTest : public ::testing::TestWithParam<std::string> {};

// Bulk ops replayed as item sequences: batches larger than the tiny
// capacity force the clamped-prefix paths, the cap-16 run walks longer
// in-order stretches through each queue's native reservation code.
TEST_P(ModelCheckerTest, BulkOpsMatchDequeModel) {
  visit_row(GetParam(), [](auto row) {
    for (std::uint64_t seed : {51ull, 52ull}) {
      replay_bulk(row, 4, seed, 2500, /*max_batch=*/6);
    }
    replay_bulk(row, 16, 61, 3000, /*max_batch=*/5);
  });
}

TEST_P(ModelCheckerTest, SingleHandleMatchesDequeModel) {
  visit_row(GetParam(), [](auto row) {
    // Tiny capacity visits full/empty constantly; the larger one walks
    // longer runs between boundary hits.
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      replay(row, 4, seed, 4000, Values::kDistinct);
    }
    replay(row, 16, 21, 6000, Values::kDistinct);
  });
}

TEST_P(ModelCheckerTest, RecordedHistoriesLinearizable) {
  visit_row(GetParam(), [](auto row) {
    record_histories(row, 2, 3, 6, {1, 2, 3}, Values::kDistinct);
  });
}

INSTANTIATE_TEST_SUITE_P(, ModelCheckerTest,
                         ::testing::ValuesIn(rows_where(kAnyRow)), row_id);

// Repeated values in the same cell are the expected-side ABA that
// round-versioned bottoms cannot guard; every row without L2's
// distinct-values assumption must shrug them off.
class ModelCheckerRepeatingValuesTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelCheckerRepeatingValuesTest, SingleHandleMatchesDequeModel) {
  visit_row(GetParam(), [](auto row) {
    for (std::uint64_t seed : {31ull, 32ull}) {
      replay(row, 2, seed, 3000, Values::kRepeating);
    }
  });
}

TEST_P(ModelCheckerRepeatingValuesTest, RecordedHistoriesLinearizable) {
  visit_row(GetParam(), [](auto row) {
    record_histories(row, 2, 3, 6, {41, 42}, Values::kRepeating);
  });
}

INSTANTIATE_TEST_SUITE_P(, ModelCheckerRepeatingValuesTest,
                         ::testing::ValuesIn(rows_where([](auto row) {
                           return row.values ==
                                  membq::workload::ValueDomain::kAny;
                         })),
                         row_id);

// michael-scott's full verdict reads tail.pos - head.pos at one instant
// and its empty verdict reads head->next, so neither counts a pending
// enqueue. C=2 keeps the queue at its bound through most of the run.
TEST(MichaelScottTest, RecordedHistoriesLinearizable) {
  membq::model::expect_linearizable_histories(
      [] { return std::make_unique<membq::MichaelScottQueue>(2, kThreads); },
      /*capacity=*/2, /*threads=*/3, /*ops_per_thread=*/6,
      {21, 22, 23, 24, 25});
}

}  // namespace
