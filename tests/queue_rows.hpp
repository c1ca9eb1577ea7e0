// gtest glue for the row table (workload/rows.hpp).
//
// The model checker's suites are value-parameterized by row name and
// instantiated, with an empty prefix, over the rows that a predicate on
// their descriptors keeps:
//
//   INSTANTIATE_TEST_SUITE_P(, Suite, ValuesIn(rows_where(pred)), row_id);
//
// so an instance reads Suite.Test/<row id>, and its body visits the named
// row to get the queue type back.
//
// The per-queue tests (QueueBasicTest, QueueConcurrentTest,
// MeasuredClassTest) are registered at start-up by register_per_row, one
// test per kept row, under the names they had when each was written by
// hand: Suite.<stem><check>, as in QueueBasicTest.DcssQueueFifoFullEmpty.
//
// Either way a row added to rows.hpp joins every check whose predicate
// keeps it, with no edit here.
#pragma once

#include <cctype>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "workload/rows.hpp"

namespace membq {
namespace rows_test {

using workload::Contract;

// Calls f(row) for every registry row, then for every role ring.
template <class F>
void for_each_queue_row(F&& f) {
  workload::for_each_row(f);
  workload::for_each_role_row(f);
}

// The names of the rows that keep(row) accepts, in table order.
template <class Keep>
std::vector<std::string> rows_where(Keep keep) {
  std::vector<std::string> names;
  for_each_queue_row([&](auto row) {
    if (keep(row)) names.emplace_back(row.name);
  });
  return names;
}

// Row predicates.
inline constexpr auto kAnyRow = [](auto) { return true; };
inline constexpr auto kLinearizableRow = [](auto row) {
  return decltype(row)::contract == Contract::kLinearizable;
};

// Calls f(row) on the row named `name`.
template <class F>
void visit_row(const std::string& name, F&& f) {
  bool found = false;
  for_each_queue_row([&](auto row) {
    if (!found && name == row.name) {
      found = true;
      f(row);
    }
  });
  ASSERT_TRUE(found) << "no row named " << name;
}

// A relaxed row takes a check's capacity per shard, so the check's full
// and empty boundaries are each shard's, and every shard keeps at least
// the 2 slots a Vyukov shard needs (sharded_queue.hpp).
template <class R>
std::size_t capacity_for(std::size_t cap) {
  return R::contract == Contract::kRelaxedFifo ? cap * workload::kShards
                                               : cap;
}

// The instance suffix: the row name with each run of characters other than
// letters and digits turned into one '_', and none at the end, so
// "optimal(L5,lf,ebr)" reads optimal_L5_lf_ebr.
inline std::string row_id(const ::testing::TestParamInfo<std::string>& info) {
  std::string id;
  for (const char c : info.param) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      id += c;
    } else if (!id.empty() && id.back() != '_') {
      id += '_';
    }
  }
  if (!id.empty() && id.back() == '_') id.pop_back();
  return id;
}

// The stems of the registered tests' names, kept from when each test was
// written by hand; CI's filters select on them (QueueConcurrentTest.Dcss*,
// QueueBasicTest.LockFreeOptimal*). A listed row that rows.hpp no longer
// has is never looked up.
struct TestStem {
  const char* row;
  const char* stem;
};

inline constexpr TestStem kTestStems[] = {
    {"optimal(L5)", "OptimalQueue"},
    {"optimal(L5,lf,ebr)", "LockFreeOptimalEbr"},
    {"optimal(L5,lf,hp)", "LockFreeOptimalHp"},
    {"distinct(L2)", "DistinctQueue"},
    {"llsc(L3)", "LlscQueue"},
    {"dcss(L4)", "DcssQueue"},
    {"segment(L1)", "SegmentQueue"},
    {"segment(L1,ebr)", "LockFreeSegmentEbr"},
    {"segment(L1,hp)", "LockFreeSegmentHp"},
    {"vyukov(perslot-seq)", "VyukovQueue"},
    {"scq(faa-ring)", "ScqRing"},
    {"michael-scott", "MichaelScott"},
    {"mutex(seq+lock)", "MutexRing"},
    {"spsc(lamport)", "SpscRing"},
    {"mpsc(ring)", "MpscRing"},
    {"spmc(ring)", "SpmcRing"},
};

// A row's stem; a row not in kTestStems takes its name in CamelCase, so
// "sharded(vyukov,4)" reads ShardedVyukov4.
inline std::string test_stem(const std::string& row) {
  for (const TestStem& s : kTestStems) {
    if (row == s.row) return s.stem;
  }
  std::string stem;
  bool word_start = true;
  for (const char c : row) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) == 0) {
      word_start = true;
      continue;
    }
    stem += word_start ? static_cast<char>(std::toupper(u)) : c;
    word_start = false;
  }
  return stem;
}

// A registered test: its body is a closure over one row.
class RowTest : public ::testing::Test {
 public:
  explicit RowTest(std::function<void()> body) : body_(std::move(body)) {}
  void TestBody() override { body_(); }

 private:
  std::function<void()> body_;
};

// Registers Suite.<stem><check(row)> to run body(row), for every row that
// keep(row) accepts, in table order. Call it from a namespace-scope
// initializer, so the tests exist before RUN_ALL_TESTS; it returns true.
template <class Keep, class Check, class Body>
bool register_per_row(const char* suite, Keep keep, Check check, Body body) {
  for_each_queue_row([&](auto row) {
    if (!keep(row)) return;
    const std::string name = test_stem(row.name) + check(row);
    ::testing::RegisterTest(suite, name.c_str(), nullptr, nullptr, __FILE__,
                            __LINE__, [row, body]() -> ::testing::Test* {
                              return new RowTest([row, body] { body(row); });
                            });
  });
  return true;
}

}  // namespace rows_test
}  // namespace membq
