// Topology discovery against a committed sysfs fixture (a 2-node SMT
// machine a CI runner does not have) and the cpuset-correct pinning
// regression. Everything here must pass on a 1-CPU, single-node host.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/pinning.hpp"
#include "common/topology.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace {

const std::string kFixture =
    std::string(MEMBQ_TEST_FIXTURE_DIR) + "/sysfs_2node_smt";

TEST(TopologyTest, ParseCpulistRangesAndSingles) {
  std::vector<int> out;
  ASSERT_TRUE(membq::topo::parse_cpulist("0-3,8,10-11", out));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  ASSERT_TRUE(membq::topo::parse_cpulist("5", out));
  EXPECT_EQ(out, std::vector<int>{5});
  // Duplicates/overlaps collapse; order is ascending regardless of input.
  ASSERT_TRUE(membq::topo::parse_cpulist("3,1-2,2", out));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  ASSERT_TRUE(membq::topo::parse_cpulist("", out));
  EXPECT_TRUE(out.empty());
}

TEST(TopologyTest, ParseCpulistRejectsMalformed) {
  std::vector<int> out{42};
  EXPECT_FALSE(membq::topo::parse_cpulist("a-b", out));
  EXPECT_FALSE(membq::topo::parse_cpulist("3-1", out));
  EXPECT_FALSE(membq::topo::parse_cpulist("1,,2", out));
  EXPECT_FALSE(membq::topo::parse_cpulist("-1", out));
  EXPECT_FALSE(membq::topo::parse_cpulist("1-", out));
  // Failed parses leave `out` untouched.
  EXPECT_EQ(out, std::vector<int>{42});
}

// The fixture: node0 = cpus 0-3 (package 0, core0 = {0,2}, core1 = {1,3}),
// node1 = cpus 4-7 (package 1, core0 = {4,6}, core1 = {5,7}).
TEST(TopologyTest, FixtureFullDiscovery) {
  const auto t = membq::topo::discover(kFixture, {});
  EXPECT_EQ(t.allowed_cpus(), 8u);
  EXPECT_EQ(t.nodes(), (std::vector<int>{0, 1}));
  EXPECT_EQ(t.physical_cores(), 4u);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(7), 1);
  EXPECT_EQ(t.node_of(99), -1);
  // Cores-first: one CPU per physical core (node-major), then the SMT
  // siblings in the same core order.
  EXPECT_EQ(t.pin_order(), (std::vector<int>{0, 1, 4, 5, 2, 3, 6, 7}));
  EXPECT_EQ(t.cpus_on_node(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.cpus_on_node(1), (std::vector<int>{4, 5, 6, 7}));
  // SMT ranks: lowest-id sibling of each core is rank 0.
  for (const auto& c : t.cpus()) {
    EXPECT_EQ(c.smt_rank, c.id >= 2 && (c.id < 4 || c.id >= 6) ? 1 : 0)
        << "cpu " << c.id;
  }
}

TEST(TopologyTest, FixtureRestrictedToCpusetSubset) {
  // taskset-style restriction to {1, 3, 5}: cpus 1 and 3 are SMT siblings
  // of one core, 5 sits alone on node 1.
  const auto t = membq::topo::discover(kFixture, {1, 3, 5});
  EXPECT_EQ(t.allowed_cpus(), 3u);
  EXPECT_EQ(t.nodes(), (std::vector<int>{0, 1}));
  EXPECT_EQ(t.physical_cores(), 2u);
  // Rank-0 CPUs of both cores (1 on node0, 5 on node1) precede the
  // sibling 3 — never two siblings before a free physical core.
  EXPECT_EQ(t.pin_order(), (std::vector<int>{1, 5, 3}));
  EXPECT_EQ(t.pin_cpu(0), 1);
  EXPECT_EQ(t.pin_cpu(1), 5);
  EXPECT_EQ(t.pin_cpu(2), 3);
  EXPECT_EQ(t.pin_cpu(3), 1);  // wraps
}

TEST(TopologyTest, FixtureRestrictedToOneNode) {
  const auto t = membq::topo::discover(kFixture, {4, 5, 6, 7});
  EXPECT_EQ(t.nodes(), std::vector<int>{1});
  EXPECT_EQ(t.physical_cores(), 2u);
  EXPECT_EQ(t.pin_order(), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_TRUE(t.cpus_on_node(0).empty());
}

TEST(TopologyTest, MissingSysfsDegradesToFlatTopology) {
  // No sysfs at all: each allowed CPU is its own core on node 0 and the
  // pin order is the identity — the pre-topology behavior.
  const auto t =
      membq::topo::discover(kFixture + "/does-not-exist", {0, 1, 2});
  EXPECT_EQ(t.allowed_cpus(), 3u);
  EXPECT_EQ(t.nodes(), std::vector<int>{0});
  EXPECT_EQ(t.physical_cores(), 3u);
  EXPECT_EQ(t.pin_order(), (std::vector<int>{0, 1, 2}));
}

TEST(TopologyTest, RealSystemSanity) {
  const auto& t = membq::topo::system();
  EXPECT_GE(t.allowed_cpus(), 1u);
  EXPECT_GE(t.node_count(), 1u);
  EXPECT_GE(t.physical_cores(), 1u);
  EXPECT_EQ(t.pin_order().size(), t.allowed_cpus());
  // The pin order is a permutation of the allowed set.
  for (int cpu : t.pin_order()) EXPECT_NE(t.node_of(cpu), -1);
}

#if defined(__linux__)
// THE cpuset regression: under a restricted affinity mask (taskset,
// cgroup cpuset), online_cpus() must count the *allowed* CPUs and
// pin_current_thread(k) must target the k-th allowed CPU — the old code
// counted _SC_NPROCESSORS_ONLN and pinned to `k % online`, which under
// `taskset -c 0` on a multi-CPU host computed CPUs the kernel then
// rejected (or worse, accepted for the wrong k).
TEST(PinningTest, RestrictedAffinityMaskIsHonored) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);

  // Restrict this thread to the single lowest allowed CPU.
  int first = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved)) {
      first = c;
      break;
    }
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  EXPECT_EQ(membq::online_cpus(), 1u);
  // Every k wraps onto the only allowed CPU; pinning must succeed and the
  // effective mask must stay inside the restriction.
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_TRUE(membq::pin_current_thread(k, membq::PinPolicy::kCoresFirst));
    cpu_set_t now;
    CPU_ZERO(&now);
    ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    EXPECT_TRUE(CPU_ISSET(first, &now)) << "k=" << k;
  }

  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}
#endif  // __linux__

}  // namespace
