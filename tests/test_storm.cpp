// STORM resource-manager tests: allocation, collective job launch,
// heartbeats and fault detection.

#include <gtest/gtest.h>

#include <vector>

#include "storm/storm.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::usec;

net::ClusterConfig cfgNodes(int n) {
  net::ClusterConfig c;
  c.num_compute_nodes = n;
  return c;
}

TEST(Storm, AllocateFirstFitAndRelease) {
  net::Cluster cluster(cfgNodes(4));
  storm::Storm storm(cluster);
  const auto a = storm.allocate(6, /*per_node=*/2);
  EXPECT_EQ(a, (std::vector<int>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(storm.usedSlots(0), 2);
  EXPECT_EQ(storm.usedSlots(3), 0);
  const auto b = storm.allocate(2, 2);
  EXPECT_EQ(b, (std::vector<int>{3, 3}));
  EXPECT_THROW(storm.allocate(1, 2), sim::SimError);
  storm.release(a);
  EXPECT_EQ(storm.usedSlots(0), 0);
  const auto c = storm.allocate(2, 2);
  EXPECT_EQ(c, (std::vector<int>{0, 0}));
}

TEST(Storm, LaunchCompletesAndReportsLatency) {
  net::Cluster cluster(cfgNodes(16));
  storm::Storm storm(cluster);
  std::vector<int> nodes;
  for (int n = 0; n < 16; ++n) nodes.push_back(n);
  sim::SimTime latency = -1;
  storm.launchImage(nodes, /*binary_bytes=*/4 << 20, /*procs_per_node=*/2,
                    [&](sim::SimTime lat) { latency = lat; });
  cluster.run();
  ASSERT_GT(latency, 0);
  // 4 MiB at ~200 MB/s multicast delivery ≈ 21 ms, plus spawn and polling.
  EXPECT_GT(latency, msec(15));
  EXPECT_LT(latency, msec(40));
}

TEST(Storm, LaunchLatencyNearlyIndependentOfNodeCount) {
  // The STORM claim: hardware-multicast launch scales O(1)-ish in nodes.
  auto launch_time = [](int n) {
    net::Cluster cluster(cfgNodes(n));
    storm::Storm storm(cluster);
    std::vector<int> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back(i);
    sim::SimTime latency = -1;
    storm.launchImage(nodes, 8 << 20, 2,
                      [&](sim::SimTime lat) { latency = lat; });
    cluster.run();
    return latency;
  };
  const auto t4 = launch_time(4);
  const auto t64 = launch_time(64);
  ASSERT_GT(t4, 0);
  ASSERT_GT(t64, 0);
  EXPECT_LT(static_cast<double>(t64), 1.3 * static_cast<double>(t4));
}

TEST(Storm, HeartbeatsDetectDeadNode) {
  net::Cluster cluster(cfgNodes(8));
  storm::StormConfig scfg;
  scfg.heartbeat_period = msec(10);
  scfg.max_missed_heartbeats = 3;
  storm::Storm storm(cluster, scfg);
  storm.startHeartbeats();
  cluster.engine().at(msec(25), [&] { storm.killNode(5); });
  cluster.engine().at(msec(200), [&] { storm.stopHeartbeats(); });
  cluster.run();
  EXPECT_GE(storm.heartbeatsSent(), 15u);
  EXPECT_FALSE(storm.nodeAlive(5));
  for (int n = 0; n < 8; ++n) {
    if (n != 5) {
      EXPECT_TRUE(storm.nodeAlive(n)) << n;
    }
  }
  EXPECT_EQ(storm.deadNodes(), std::vector<int>{5});
}

TEST(Storm, HangShorterThanThresholdIsNotDeclaredDead) {
  // A 15 ms NIC hang at a 10 ms heartbeat period misses at most 2 beats —
  // below max_missed_heartbeats = 3 — so the MM must NOT declare the node
  // dead (false-positive check).
  net::ClusterConfig ccfg = cfgNodes(8);
  ccfg.faults.hangNode(5, msec(22), msec(15));
  net::Cluster cluster(ccfg);
  storm::StormConfig scfg;
  scfg.heartbeat_period = msec(10);
  scfg.max_missed_heartbeats = 3;
  storm::Storm storm(cluster, scfg);
  storm.startHeartbeats();
  cluster.engine().at(msec(200), [&] { storm.stopHeartbeats(); });
  cluster.run();
  EXPECT_TRUE(storm.nodeAlive(5));
  EXPECT_TRUE(storm.deadNodes().empty());
}

TEST(Storm, FaultPlanCrashIsDeclaredWithinLatencyBound) {
  // A FaultPlan crash silences the node's NIC end to end: the heartbeat
  // multicast leg to it is suppressed by the fabric, so detection needs no
  // cooperation from Storm::killNode.  With period P and threshold 3, a
  // crash at T must be declared in (T + 2P, T + 4P]: the first fully missed
  // beat is checked at most one period after T plus the half-period
  // inspection delay, and two more follow at period intervals.
  net::ClusterConfig ccfg = cfgNodes(8);
  const sim::SimTime crash_at = msec(25);
  ccfg.faults.crashNode(5, crash_at);
  net::Cluster cluster(ccfg);
  storm::StormConfig scfg;
  scfg.heartbeat_period = msec(10);
  scfg.max_missed_heartbeats = 3;
  storm::Storm storm(cluster, scfg);
  sim::SimTime declared_at = -1;
  int handler_calls = 0;
  storm.setDeathHandler([&](int node) {
    EXPECT_EQ(node, 5);
    ++handler_calls;
    declared_at = cluster.engine().now();
  });
  storm.startHeartbeats();
  cluster.engine().at(msec(200), [&] { storm.stopHeartbeats(); });
  cluster.run();
  EXPECT_FALSE(storm.nodeAlive(5));
  EXPECT_EQ(handler_calls, 1);  // death handler fires exactly once
  ASSERT_GT(declared_at, 0);
  EXPECT_GT(declared_at, crash_at + 2 * scfg.heartbeat_period);
  EXPECT_LE(declared_at, crash_at + 4 * scfg.heartbeat_period);
}

TEST(Storm, NoisySlowClusterProducesNoFalsePositives) {
  // OS noise perturbs timing but every node still acknowledges each beat;
  // nobody may be declared dead.
  net::ClusterConfig ccfg = cfgNodes(8);
  ccfg.inject_noise = true;
  net::Cluster cluster(ccfg);
  storm::StormConfig scfg;
  scfg.heartbeat_period = msec(10);
  scfg.max_missed_heartbeats = 3;
  storm::Storm storm(cluster, scfg);
  int handler_calls = 0;
  storm.setDeathHandler([&](int) { ++handler_calls; });
  storm.startHeartbeats();
  cluster.engine().at(msec(300), [&] { storm.stopHeartbeats(); });
  cluster.run(msec(400));
  EXPECT_TRUE(storm.deadNodes().empty());
  EXPECT_EQ(handler_calls, 0);
  EXPECT_GE(storm.heartbeatsSent(), 25u);
}

TEST(Storm, KillNodeRegistersWithTheFaultInjector) {
  // killNode is sugar over FaultInjector::forceDown — the injector is the
  // single source of truth for endpoint liveness, so there is no separate
  // "Storm thinks it's dead" state to fall out of sync.
  net::Cluster cluster(cfgNodes(4));
  storm::StormConfig scfg;
  storm::Storm storm(cluster, scfg);
  EXPECT_EQ(cluster.faults()->stats().forced_down, 0u);
  storm.killNode(2);
  EXPECT_TRUE(cluster.faults()->nodeDown(2, cluster.engine().now()));
  EXPECT_TRUE(cluster.faults()->nodeDown(2, msec(500)));  // permanent
  EXPECT_FALSE(cluster.faults()->nodeDown(1, msec(500)));
  EXPECT_EQ(cluster.faults()->stats().forced_down, 1u);
  // The MM has not *declared* anything yet — that still takes heartbeats.
  EXPECT_TRUE(storm.nodeAlive(2));
}

TEST(Storm, HangPastThresholdIsDeclaredDeadThenRejoins) {
  // A hang longer than the death threshold: the node is declared dead, and
  // when its heartbeats resume the MM clears its books and fires the rejoin
  // hook exactly once.
  net::ClusterConfig ccfg = cfgNodes(8);
  ccfg.faults.hangNode(5, msec(20), msec(60));  // down [20 ms, 80 ms)
  net::Cluster cluster(ccfg);
  storm::StormConfig scfg;
  scfg.heartbeat_period = msec(10);
  scfg.max_missed_heartbeats = 3;
  storm::Storm storm(cluster, scfg);
  int deaths = 0, rejoins = 0;
  sim::SimTime rejoined_at = -1;
  storm.setDeathHandler([&](int node) {
    EXPECT_EQ(node, 5);
    ++deaths;
  });
  storm.setRejoinHandler([&](int node) {
    EXPECT_EQ(node, 5);
    ++rejoins;
    rejoined_at = cluster.engine().now();
  });
  storm.startHeartbeats();
  cluster.engine().at(msec(200), [&] { storm.stopHeartbeats(); });
  cluster.run();
  EXPECT_EQ(deaths, 1);
  EXPECT_EQ(rejoins, 1);
  EXPECT_TRUE(storm.nodeAlive(5));
  EXPECT_TRUE(storm.deadNodes().empty());
  // The rejoin lands with the first inspected beat after the hang window.
  ASSERT_GT(rejoined_at, 0);
  EXPECT_GT(rejoined_at, msec(80));
  EXPECT_LE(rejoined_at, msec(80) + 2 * scfg.heartbeat_period);
}

TEST(Storm, DeadNodesAreSkippedByAllocation) {
  net::Cluster cluster(cfgNodes(4));
  storm::StormConfig scfg;
  scfg.heartbeat_period = msec(5);
  storm::Storm storm(cluster, scfg);
  storm.killNode(1);
  storm.startHeartbeats();
  cluster.engine().at(msec(100), [&] { storm.stopHeartbeats(); });
  cluster.run();
  ASSERT_FALSE(storm.nodeAlive(1));
  const auto a = storm.allocate(6, 2);
  EXPECT_EQ(a, (std::vector<int>{0, 0, 2, 2, 3, 3}));
}

}  // namespace
