#include "metrics/overhead.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queue_rows.hpp"
#include "workload/registry.hpp"

namespace {

using membq::metrics::classify;
using membq::metrics::OverheadRow;
using membq::metrics::ThetaClass;

std::vector<OverheadRow> sweep_c(std::size_t threads,
                                 double per_c, double constant) {
  std::vector<OverheadRow> rows;
  for (std::size_t c : {64, 256, 1024, 4096, 16384}) {
    OverheadRow r;
    r.capacity = c;
    r.threads = threads;
    r.overhead_bytes = static_cast<std::size_t>(per_c * c + constant);
    rows.push_back(r);
  }
  return rows;
}

std::vector<OverheadRow> sweep_t(std::size_t capacity,
                                 double per_t, double constant) {
  std::vector<OverheadRow> rows;
  for (std::size_t t : {2, 4, 8, 16, 32, 64}) {
    OverheadRow r;
    r.capacity = capacity;
    r.threads = t;
    r.overhead_bytes = static_cast<std::size_t>(per_t * t + constant);
    rows.push_back(r);
  }
  return rows;
}

TEST(ThetaClassifierTest, FlatSweepsAreThetaOne) {
  EXPECT_EQ(classify(sweep_c(8, 0.0, 96), sweep_t(1024, 0.0, 96)),
            ThetaClass::kOne);
}

TEST(ThetaClassifierTest, ThreadLinearIsThetaT) {
  EXPECT_EQ(classify(sweep_c(8, 0.0, 200), sweep_t(1024, 64.0, 200)),
            ThetaClass::kT);
}

TEST(ThetaClassifierTest, CapacityLinearIsThetaC) {
  EXPECT_EQ(classify(sweep_c(8, 8.0, 64), sweep_t(1024, 0.0, 8.0 * 1024)),
            ThetaClass::kC);
}

TEST(ThetaClassifierTest, BothLinearIsThetaCT) {
  EXPECT_EQ(classify(sweep_c(8, 8.0, 0), sweep_t(1024, 64.0, 8.0 * 1024)),
            ThetaClass::kCT);
}

TEST(ThetaClassifierTest, ToStringNamesEveryClass) {
  EXPECT_EQ(membq::metrics::to_string(ThetaClass::kOne), "Theta(1)");
  EXPECT_EQ(membq::metrics::to_string(ThetaClass::kT), "Theta(T)");
  EXPECT_EQ(membq::metrics::to_string(ThetaClass::kC), "Theta(C)");
  EXPECT_EQ(membq::metrics::to_string(ThetaClass::kCT), "Theta(C+T)");
}

TEST(FormatTableTest, ContainsHeaderAndEveryRow) {
  std::vector<OverheadRow> rows;
  OverheadRow r;
  r.queue = "some-queue";
  r.capacity = 64;
  r.threads = 8;
  r.overhead_bytes = 123;
  r.aux_bytes = 7;
  rows.push_back(r);
  const std::string table = membq::metrics::format_table(rows);
  EXPECT_NE(table.find("queue"), std::string::npos);
  EXPECT_NE(table.find("overhead_B"), std::string::npos);
  EXPECT_NE(table.find("some-queue"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);
}

// The paper's central claims, measured end-to-end through the counting
// allocator on reduced sweeps: the registry row `name`'s class.
ThetaClass measured_class(const std::string& name) {
  for (const auto& spec : membq::workload::all_queues(/*max_threads=*/16)) {
    if (spec.name != name) continue;
    std::vector<OverheadRow> c_sweep, t_sweep;
    for (std::size_t c : {64, 256, 1024, 4096}) {
      c_sweep.push_back(spec.overhead(c, 8));
    }
    for (std::size_t t : {2, 4, 8, 16}) {
      t_sweep.push_back(spec.overhead(512, t));
    }
    return classify(c_sweep, t_sweep);
  }
  ADD_FAILURE() << "queue not registered: " << name;
  return ThetaClass::kOne;
}

// MeasuredClassTest.<stem>Is<claim>, one test per row whose claim E9
// checks: the row lands in its claimed class. The Θ(T) rows' announcement
// records, DCSS descriptors and SMR slots are all Θ(T), and an SMR backlog
// is left out through the retired_B column.
[[maybe_unused]] const bool kMeasuredClassRegistered =
    membq::rows_test::register_per_row(
        "MeasuredClassTest",
        [](auto row) {
          return row.claim != nullptr &&
                 !membq::workload::composite_claim(row.claim);
        },
        [](auto row) {
          // Theta(T) reads IsThetaT and Theta(1) IsThetaOne; a row with
          // aux bytes (llsc's emulation stamps) holds its class beyond them.
          const std::string claim = row.claim;
          return "Is" +
                 (claim == membq::workload::kThetaOne
                      ? std::string("ThetaOne")
                      : membq::rows_test::test_stem(claim)) +
                 (row.aux == membq::workload::no_aux ? "" : "BeyondEmulation");
        },
        [](auto row) {
          EXPECT_EQ(membq::metrics::to_string(measured_class(row.name)),
                    row.claim);
        });

TEST(MeasuredClassTest, MichaelScottGrowsWithLiveElements) {
  // Full queue: node-per-element shows up as capacity-linear growth.
  const ThetaClass cls = measured_class("michael-scott");
  EXPECT_TRUE(cls == ThetaClass::kC || cls == ThetaClass::kCT);
}

}  // namespace
