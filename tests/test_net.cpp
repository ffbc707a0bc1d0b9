// Unit tests for the network substrate: topology, parameter presets, and the
// fabric timing model (unicast, contention, multicast, conditionals).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "net/cluster.hpp"
#include "net/fabric.hpp"
#include "net/params.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace {

using namespace bcs;
using namespace bcs::net;
using sim::SimTime;
using sim::usec;

// ------------------------------------------------------------- Topology --

TEST(FatTree, SingleLevelDistances) {
  FatTree t(4, 4);
  EXPECT_EQ(t.levels(), 1);
  EXPECT_EQ(t.lcaLevel(0, 1), 1);
  EXPECT_EQ(t.hops(0, 3), 1);
  EXPECT_EQ(t.hops(2, 2), 0);
}

TEST(FatTree, QuaternaryLevels) {
  FatTree t(33, 4);  // 32 compute + 1 management, QsNet quaternary
  EXPECT_EQ(t.levels(), 3);
  EXPECT_EQ(t.lcaLevel(0, 1), 1);   // same leaf switch
  EXPECT_EQ(t.lcaLevel(0, 5), 2);   // adjacent groups
  EXPECT_EQ(t.lcaLevel(0, 17), 3);  // across the top
  EXPECT_EQ(t.hops(0, 17), 5);
}

TEST(FatTree, RejectsBadInput) {
  EXPECT_THROW(FatTree(0, 4), std::invalid_argument);
  EXPECT_THROW(FatTree(4, 1), std::invalid_argument);
  FatTree t(8, 2);
  EXPECT_THROW(t.lcaLevel(0, 8), std::out_of_range);
}

// --------------------------------------------------------------- Params --

TEST(Params, PresetsAreSelfConsistent) {
  for (const auto& p :
       {NetworkParams::qsnet(), NetworkParams::gigabitEthernet(),
        NetworkParams::myrinet(), NetworkParams::infiniband(),
        NetworkParams::bluegeneL()}) {
    EXPECT_GT(p.link_bandwidth, 0.0) << p.name;
    EXPECT_GT(p.effectiveBandwidth(), 0.0) << p.name;
    EXPECT_LE(p.effectiveBandwidth(), p.link_bandwidth) << p.name;
    EXPECT_GE(p.radix, 2) << p.name;
    if (!p.hw_conditional) {
      EXPECT_GT(p.sw_step_latency, 0) << p.name;
    }
  }
}

TEST(Params, QsNetHasHardwareCollectives) {
  const auto p = NetworkParams::qsnet();
  EXPECT_TRUE(p.hw_multicast);
  EXPECT_TRUE(p.hw_conditional);
  EXPECT_NEAR(p.effectiveBandwidth(), 0.34, 1e-9);  // PCI not the bottleneck
}

// --------------------------------------------------------------- Fabric --

struct FabricFixture : ::testing::Test {
  sim::Engine eng;
  NetworkParams params = NetworkParams::qsnet();
  Fabric fabric{eng, params, 33};
};

TEST_F(FabricFixture, UnicastLatencyMatchesModel) {
  SimTime delivered = -1;
  const std::size_t bytes = 4096;
  fabric.unicast(0, 1, bytes, [&] { delivered = eng.now(); });
  eng.run();
  const auto serial = static_cast<SimTime>(
      std::ceil(static_cast<double>(bytes) / params.effectiveBandwidth()));
  const SimTime expected = params.nic_tx_overhead + params.pci_latency +
                           fabric.baseLatency(0, 1) + serial +
                           params.nic_rx_overhead;
  EXPECT_EQ(delivered, expected);
}

TEST_F(FabricFixture, FartherNodesTakeLonger) {
  SimTime near = -1, far = -1;
  fabric.unicast(0, 1, 64, [&] { near = eng.now(); });
  eng.run();
  sim::Engine eng2;
  Fabric fabric2(eng2, params, 33);
  fabric2.unicast(0, 17, 64, [&] { far = eng2.now(); });
  eng2.run();
  EXPECT_GT(far, near);
}

TEST_F(FabricFixture, EgressSerializesBackToBackSends) {
  // Two large messages from the same source must serialize on its egress.
  std::vector<SimTime> t(2, -1);
  const std::size_t bytes = 1 << 20;
  fabric.unicast(0, 1, bytes, [&] { t[0] = eng.now(); });
  fabric.unicast(0, 2, bytes, [&] { t[1] = eng.now(); });
  eng.run();
  const auto serial = static_cast<SimTime>(
      std::ceil(static_cast<double>(bytes) / params.effectiveBandwidth()));
  EXPECT_GE(t[1] - t[0], serial - usec(1));
}

TEST_F(FabricFixture, IngressSerializesConcurrentSenders) {
  std::vector<SimTime> t(2, -1);
  const std::size_t bytes = 1 << 20;
  fabric.unicast(1, 0, bytes, [&] { t[0] = eng.now(); });
  fabric.unicast(2, 0, bytes, [&] { t[1] = eng.now(); });
  eng.run();
  const auto serial = static_cast<SimTime>(
      std::ceil(static_cast<double>(bytes) / params.effectiveBandwidth()));
  EXPECT_GE(std::abs(t[1] - t[0]), serial - usec(1));
}

TEST_F(FabricFixture, DisjointPairsDoNotContend) {
  SimTime alone = -1;
  fabric.unicast(0, 1, 65536, [&] { alone = eng.now(); });
  eng.run();

  sim::Engine eng2;
  Fabric f2(eng2, params, 33);
  std::vector<SimTime> t(2, -1);
  f2.unicast(0, 1, 65536, [&] { t[0] = eng2.now(); });
  f2.unicast(2, 3, 65536, [&] { t[1] = eng2.now(); });
  eng2.run();
  EXPECT_EQ(t[0], alone);
  EXPECT_EQ(t[1], alone);
}

TEST_F(FabricFixture, SelfSendUsesLoopback) {
  SimTime delivered = -1;
  fabric.unicast(5, 5, 1024, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, usec(10));
}

TEST_F(FabricFixture, HardwareMulticastReachesAllDestinations) {
  std::vector<int> got;
  bool all = false;
  fabric.multicast(0, {1, 2, 3, 8, 16, 32}, 256,
                   [&](int node) { got.push_back(node); }, [&] { all = true; });
  eng.run();
  EXPECT_TRUE(all);
  EXPECT_EQ(got.size(), 6u);
}

TEST_F(FabricFixture, MulticastExcludesSourceAndDedups) {
  std::vector<int> got;
  fabric.multicast(0, {0, 1, 1, 2}, 64, [&](int node) { got.push_back(node); },
                   {});
  eng.run();
  EXPECT_EQ(got.size(), 2u);
}

// A hardware multicast runs every leg that lands at one instant from one
// engine event, in ascending destination order, and still fires exactly as
// one event per leg did.
TEST_F(FabricFixture, HardwareMulticastCoalescesSameInstantLegs) {
  std::vector<int> dests;  // 31 legs, handed over in descending order
  for (int d = 31; d >= 1; --d) dests.push_back(d);
  std::vector<int> log;  // leg destinations; 0 = on_all, -1 = follow-up
  std::vector<SimTime> at;
  fabric.multicast(
      0, dests, 256,
      [&](int node) {
        log.push_back(node);
        at.push_back(eng.now());
        // Scheduled at the current instant from the first leg: it draws a
        // later key than every leg and on_all, so it runs after them.
        if (node == 1) eng.at(eng.now(), [&] { log.push_back(-1); });
      },
      [&] { log.push_back(0); });
  eng.run();

  std::vector<int> expected;
  for (int d = 1; d <= 31; ++d) expected.push_back(d);
  expected.push_back(0);
  expected.push_back(-1);
  EXPECT_EQ(log, expected);
  ASSERT_EQ(at.size(), 31u);
  for (const SimTime t : at) EXPECT_EQ(t, at.front());
  // One event for the 31 same-instant legs, one for on_all, one follow-up.
  EXPECT_EQ(eng.executedEvents(), 3u);
}

TEST_F(FabricFixture, HardwareMulticastKeepsLateAndSuppressedLegsExact) {
  sim::FaultPlan plan;
  plan.crashNode(3, 0).crashNode(20, 0);
  sim::FaultInjector faults(plan, 1);
  fabric.setFaultInjector(&faults);
  // A large transfer into node 7 keeps its ingress busy, so its leg lands
  // at its own later instant.
  SimTime unicast_done = -1;
  fabric.unicast(32, 7, 1 << 20, [&] { unicast_done = eng.now(); });
  std::vector<int> dests;
  for (int d = 1; d <= 31; ++d) dests.push_back(d);
  std::vector<std::pair<int, SimTime>> got;
  SimTime all_done = -1;
  fabric.multicast(
      0, dests, 256, [&](int node) { got.emplace_back(node, eng.now()); },
      [&] { all_done = eng.now(); });
  eng.run();

  ASSERT_EQ(got.size(), 29u);  // nodes 3 and 20 are down
  EXPECT_EQ(fabric.stats().suppressed_deliveries, 2u);
  const SimTime common = got.front().second;
  int prev = 0;
  for (std::size_t i = 0; i + 1 < got.size(); ++i) {
    EXPECT_NE(got[i].first, 3);
    EXPECT_NE(got[i].first, 20);
    EXPECT_GT(got[i].first, prev);  // ascending within the common instant
    prev = got[i].first;
    EXPECT_EQ(got[i].second, common);
  }
  EXPECT_EQ(got.back().first, 7);
  EXPECT_GT(got.back().second, unicast_done);
  EXPECT_EQ(all_done, got.back().second);
  // The unicast, the 28 common-instant legs, node 7's leg, and on_all.
  EXPECT_EQ(eng.executedEvents(), 4u);
}

TEST_F(FabricFixture, MulticastLatencyIsNearlyFlatInFanout) {
  SimTime small_fan = -1, large_fan = -1;
  {
    sim::Engine e1;
    Fabric f1(e1, params, 130);
    f1.multicast(0, {1, 2}, 64, {}, [&] { small_fan = e1.now(); });
    e1.run();
  }
  {
    sim::Engine e2;
    Fabric f2(e2, params, 130);
    std::vector<int> dests;
    for (int i = 1; i < 128; ++i) dests.push_back(i);
    f2.multicast(0, dests, 64, {}, [&] { large_fan = e2.now(); });
    e2.run();
  }
  // Hardware multicast: fan-out of 127 costs little more than fan-out of 2.
  EXPECT_LT(large_fan, 2 * small_fan);
}

TEST_F(FabricFixture, ConditionalEvaluatesAtOneInstant) {
  std::vector<int> nodes{0, 1, 2, 3};
  std::vector<bool> flag(4, true);
  bool result = false;
  SimTime when = -1;
  fabric.conditional(
      0, nodes, [&](int n) { return flag[static_cast<std::size_t>(n)]; },
      /*write=*/{},
      [&](bool ok) {
        result = ok;
        when = eng.now();
      });
  // Flip a flag *before* the conditional's evaluation instant: the paper's
  // sequential-consistency requirement means evaluation sees this write.
  flag[2] = false;
  eng.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(when, fabric.conditionalLatency(4));
}

TEST_F(FabricFixture, ConditionalWritePhaseAppliesToAllNodes) {
  std::vector<int> nodes{0, 1, 2};
  std::vector<int> value(3, 0);
  fabric.conditional(0, nodes, [](int) { return true; },
                     [&](int n) { value[static_cast<std::size_t>(n)] = 7; },
                     {});
  eng.run();
  EXPECT_EQ(value, (std::vector<int>{7, 7, 7}));
}

TEST_F(FabricFixture, ConditionalSkipsWriteWhenFalse) {
  std::vector<int> nodes{0, 1, 2};
  std::vector<int> value(3, 0);
  fabric.conditional(0, nodes, [](int n) { return n != 1; },
                     [&](int n) { value[static_cast<std::size_t>(n)] = 7; },
                     {});
  eng.run();
  EXPECT_EQ(value, (std::vector<int>{0, 0, 0}));
}

TEST(SoftwareCollectives, EmulatedMulticastScalesLogarithmically) {
  // Myrinet-style software tree: latency grows with log2(n), not n.
  const auto params = NetworkParams::myrinet();
  auto run_mcast = [&](int n) {
    sim::Engine eng;
    Fabric fabric(eng, params, 1025);
    std::vector<int> dests;
    for (int i = 1; i < n; ++i) dests.push_back(i);
    SimTime done = -1;
    fabric.multicast(0, dests, 64, {}, [&] { done = eng.now(); });
    eng.run();
    return done;
  };
  const SimTime t8 = run_mcast(8);
  const SimTime t64 = run_mcast(64);
  const SimTime t512 = run_mcast(512);
  // log2: 3, 6, 9 levels — roughly linear increments, far from linear in n.
  EXPECT_LT(static_cast<double>(t64), 2.6 * static_cast<double>(t8));
  EXPECT_LT(static_cast<double>(t512), 2.0 * static_cast<double>(t64));
}

TEST(SoftwareCollectives, EmulatedMulticastReleasesItsCallbacks) {
  // The binomial relay chain must free its shared state (and with it both
  // callbacks) once the last leg lands; a capture in on_all is the witness.
  sim::Engine eng;
  Fabric fabric(eng, NetworkParams::myrinet(), 16);
  auto sentinel = std::make_shared<int>(0);
  std::vector<int> got;
  fabric.multicast(0, {1, 2, 3, 5, 8, 13}, 64,
                   [&got](int node) { got.push_back(node); },
                   [sentinel] { ++*sentinel; });
  eng.run();
  EXPECT_EQ(got.size(), 6u);
  EXPECT_EQ(*sentinel, 1);
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(SoftwareCollectives, EmulatedConditionalMatchesTable1Envelope) {
  // GigE: 46 us per tree level (Table 1).
  const auto params = NetworkParams::gigabitEthernet();
  sim::Engine eng;
  Fabric fabric(eng, params, 1025);
  EXPECT_EQ(fabric.conditionalLatency(2), usec(46));
  EXPECT_EQ(fabric.conditionalLatency(64), 6 * usec(46));
  EXPECT_EQ(fabric.conditionalLatency(1024), 10 * usec(46));
}

TEST(SoftwareCollectives, QsNetConditionalUnder10us) {
  const auto params = NetworkParams::qsnet();
  sim::Engine eng;
  Fabric fabric(eng, params, 1025);
  EXPECT_LT(fabric.conditionalLatency(1024), usec(10));
}

TEST(FabricStatsTest, CountsOperations) {
  sim::Engine eng;
  Fabric fabric(eng, NetworkParams::qsnet(), 8);
  fabric.unicast(0, 1, 100, [] {});
  fabric.multicast(0, {1, 2}, 100, {}, {});
  fabric.conditional(0, {0, 1}, [](int) { return true; }, {}, {});
  eng.run();
  EXPECT_EQ(fabric.stats().unicasts, 1u);
  EXPECT_EQ(fabric.stats().multicasts, 1u);
  EXPECT_EQ(fabric.stats().conditionals, 1u);
  EXPECT_GE(fabric.stats().payload_bytes, 300u);
}

// -------------------------------------------------------------- Cluster --

TEST(ClusterTest, SpawnAndRunProcesses) {
  ClusterConfig cfg;
  cfg.num_compute_nodes = 4;
  Cluster cluster(cfg);
  int ran = 0;
  for (int n = 0; n < 4; ++n) {
    cluster.spawn(n, "worker" + std::to_string(n), [&](sim::Process& p) {
      p.compute(sim::msec(1));
      ++ran;
    });
  }
  cluster.run();
  EXPECT_EQ(ran, 4);
  EXPECT_TRUE(cluster.allProcessesFinished());
  EXPECT_TRUE(cluster.unfinishedProcesses().empty());
}

TEST(ClusterTest, ReportsUnfinishedProcessesOnDeadlock) {
  ClusterConfig cfg;
  cfg.num_compute_nodes = 2;
  Cluster cluster(cfg);
  cluster.spawn(0, "stuck", [](sim::Process& p) {
    p.block();  // nobody ever wakes us
  });
  cluster.run();
  EXPECT_FALSE(cluster.allProcessesFinished());
  ASSERT_EQ(cluster.unfinishedProcesses().size(), 1u);
  EXPECT_EQ(cluster.unfinishedProcesses()[0], "stuck");
}

TEST(ClusterTest, ManagementNodeIsExtra) {
  ClusterConfig cfg;
  cfg.num_compute_nodes = 8;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.managementNode(), 8);
  EXPECT_EQ(cluster.totalNodes(), 9);
  EXPECT_EQ(cluster.fabric().numNodes(), 9);
}

}  // namespace
