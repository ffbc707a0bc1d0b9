// Control-plane failover tests: the Strobe Sender (and with it STORM's
// Machine Manager) dies mid-run and the system survives.
//
// The invariants under test:
//   * a Strobe Sender crash during ANY microphase (DEM/MSM/P2P/BBM/RM) is
//     detected by the slice watchdogs, the lowest-id live compute node
//     elects itself backup through a Compare-And-Write epoch claim, and
//     every job runs to completion under the new Strobe Sender;
//   * STORM's Machine Manager role fails over together with the Strobe
//     Sender, so heartbeat-driven fault detection keeps working afterwards;
//   * a node that was declared dead during a hang window re-announces
//     itself once its heartbeats resume and is reintegrated at a slice
//     boundary — and is then genuinely usable for new work;
//   * the whole story — watchdog fires, election, phase recovery, rejoin —
//     is a pure function of (seed, fault plan): replays are byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "storm/storm.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::SimTime;
using sim::usec;

bcsmpi::BcsMpiConfig quickCfg() {
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  return cfg;
}

/// Wires the three control-plane hooks the way production code should:
/// heartbeat death -> eviction, heartbeat re-ack -> rejoin, Strobe Sender
/// election -> Machine Manager failover.
void wireControlPlane(storm::Storm& storm, bcsmpi::Runtime& runtime) {
  storm.setDeathHandler([&runtime](int node) {
    runtime.notifyNodeFailure(node);
  });
  storm.setRejoinHandler([&runtime](int node) {
    runtime.notifyNodeRejoin(node);
  });
  runtime.setFailoverHandler([&storm](int node, std::uint64_t) {
    storm.failoverTo(node);
  });
}

// ---------------------------------------------------------------------------
// Strobe Sender crash during each microphase, parameterized
// ---------------------------------------------------------------------------

struct SsCrashOut {
  std::string trace;
  std::vector<sim::TraceRecord> records;
  std::uint64_t elections = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t evictions = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t suppressed_conditionals = 0;
  std::uint64_t epoch = 0;
  int strobe_node = -1;
  int mm_node = -1;
  std::size_t unfinished = 0;
  std::vector<int> errors;
};

/// Ring job on 8 nodes; the management node (initial Strobe Sender and
/// Machine Manager) crashes at `crash_at` (no crash when negative).
SsCrashOut runSsCrash(SimTime crash_at) {
  const int P = 8;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 90210;
  if (crash_at >= 0) ccfg.faults.crashManagementNode(crash_at);
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg();
  cfg.watchdog_slices = 4;  // 2 ms of microstrobe silence triggers failover
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  storm::Storm storm(cluster, scfg);
  wireControlPlane(storm, *runtime);
  storm.startHeartbeats();
  cluster.engine().at(msec(60), [&storm] { storm.stopHeartbeats(); });

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  std::vector<int> errors(P, 0);
  bcsmpi::launchJob(*runtime, map, [&](mpi::Comm& comm) {
    const int me = comm.rank();
    const int right = (me + 1) % P;
    const int left = (me + P - 1) % P;
    std::vector<std::uint8_t> out(1024), in(1024);
    for (int round = 0; round < 12; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), right, round);
      auto rreq = comm.irecv(in.data(), in.size(), left, round);
      mpi::Status ss, rs;
      comm.wait(sreq, &ss);
      comm.wait(rreq, &rs);
      if (ss.error != mpi::kSuccess || rs.error != mpi::kSuccess) {
        ++errors[static_cast<std::size_t>(me)];
      }
    }
  });
  cluster.run();

  SsCrashOut out;
  out.trace = cluster.trace().dump();
  out.records = cluster.trace().records();
  out.elections = runtime->stats().elections;
  out.watchdog_fires = runtime->stats().watchdog_fires;
  out.evictions = runtime->stats().evictions;
  out.requests_failed = runtime->stats().requests_failed;
  out.suppressed_conditionals = cluster.fabric().stats().suppressed_conditionals;
  out.epoch = runtime->controlEpoch();
  out.strobe_node = runtime->strobeNode();
  out.mm_node = storm.machineManagerNode();
  out.unfinished = cluster.unfinishedProcesses().size();
  out.errors = errors;
  return out;
}

class SsCrashDuringPhase : public ::testing::TestWithParam<const char*> {};

TEST_P(SsCrashDuringPhase, BackupElectedAndJobCompletes) {
  const std::string phase = GetParam();

  // Reference run (no fault) pins down the instant the mid-run microstrobe
  // of the target phase goes out; the crash is planted just after it, so the
  // Strobe Sender dies with that exact microphase in flight.
  const SsCrashOut ref = runSsCrash(-1);
  ASSERT_EQ(ref.elections, 0u);
  ASSERT_EQ(ref.watchdog_fires, 0u);
  SimTime strobe_at = -1;
  for (const sim::TraceRecord& r : ref.records) {
    if (r.category == sim::TraceCategory::kStrobe && r.time >= msec(3) &&
        r.message.rfind("microstrobe " + phase + " ", 0) == 0) {
      strobe_at = r.time;
      break;
    }
  }
  ASSERT_GE(strobe_at, 0) << "no mid-run " << phase << " strobe found";

  const SsCrashOut a = runSsCrash(strobe_at + usec(1));

  // Every rank finished: the ranks live on compute nodes, the management
  // node's death costs coordination, not application state.
  EXPECT_EQ(a.unfinished, 0u) << "ranks deadlocked after SS crash";
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(a.errors[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  EXPECT_EQ(a.requests_failed, 0u);
  EXPECT_EQ(a.evictions, 0u);  // no compute node died

  // Exactly one election: the watchdogs fired, node 0 (lowest-id live node)
  // claimed epoch 1 and took over both control-plane roles.
  EXPECT_GE(a.watchdog_fires, 1u);
  EXPECT_EQ(a.elections, 1u);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.strobe_node, 0);
  EXPECT_EQ(a.mm_node, 0);
  const std::size_t elected = std::count_if(
      a.records.begin(), a.records.end(), [](const sim::TraceRecord& r) {
        return r.category == sim::TraceCategory::kFailover &&
               r.message.find("elected backup Strobe Sender") !=
                   std::string::npos;
      });
  EXPECT_EQ(elected, 1u);

  // The crash landed mid-phase, so the dead Strobe Sender had a completion
  // poll in flight; the fabric must cut its result off rather than let a
  // ghost strobe chain race the elected backup's.
  EXPECT_GE(a.suppressed_conditionals, 1u);

  // Replay: same seed, same plan, byte-identical trace.
  const SsCrashOut b = runSsCrash(strobe_at + usec(1));
  EXPECT_EQ(a.trace, b.trace);
}

INSTANTIATE_TEST_SUITE_P(EveryMicrophase, SsCrashDuringPhase,
                         ::testing::Values("DEM", "MSM", "P2P", "BBM", "RM"),
                         [](const auto& info) { return info.param; });

/// Simulated instant of the first failover record containing `text`, or -1.
SimTime firstFailoverAt(const std::vector<sim::TraceRecord>& records,
                        const std::string& text) {
  for (const sim::TraceRecord& r : records) {
    if (r.category == sim::TraceCategory::kFailover &&
        r.message.find(text) != std::string::npos) {
      return r.time;
    }
  }
  return -1;
}

/// The fault-free run's first `phase` microstrobe at or after 3 ms.
SimTime midRunStrobeAt(const std::vector<sim::TraceRecord>& records,
                       const std::string& phase) {
  for (const sim::TraceRecord& r : records) {
    if (r.category == sim::TraceCategory::kStrobe && r.time >= msec(3) &&
        r.message.rfind("microstrobe " + phase + " ", 0) == 0) {
      return r.time;
    }
  }
  return -1;
}

/// When the Strobe Sender is suspected and when its backup takes over, for
/// a crash just after the mid-run microstrobe of `phase`.  The watchdogs'
/// re-arm schedule is host-side bookkeeping: however it is laid out, a
/// silent Strobe Sender must be suspected exactly `watchdog_slices` slices
/// after the last strobe a node heard.
struct FailoverTiming {
  const char* phase;
  SimTime first_fire;
  SimTime elected;
};

class SsCrashFailoverTiming : public ::testing::TestWithParam<FailoverTiming> {
};

TEST_P(SsCrashFailoverTiming, SuspicionAndElectionInstantsArePinned) {
  const FailoverTiming& want = GetParam();
  const SimTime strobe_at = midRunStrobeAt(runSsCrash(-1).records, want.phase);
  ASSERT_GE(strobe_at, 0);
  const SsCrashOut a = runSsCrash(strobe_at + usec(1));
  EXPECT_EQ(firstFailoverAt(a.records, "slice watchdog fired"),
            want.first_fire);
  EXPECT_EQ(firstFailoverAt(a.records, "elected backup Strobe Sender"),
            want.elected);
}

INSTANTIATE_TEST_SUITE_P(
    EveryMicrophase, SsCrashFailoverTiming,
    ::testing::Values(FailoverTiming{"DEM", 5'054'600, 5'059'600},
                      FailoverTiming{"MSM", 5'119'600, 5'124'600},
                      FailoverTiming{"P2P", 5'194'600, 5'199'600},
                      FailoverTiming{"BBM", 5'209'600, 5'214'600},
                      FailoverTiming{"RM", 5'214'600, 5'219'600}),
    [](const auto& info) { return std::string(info.param.phase); });

TEST(SsCrash, WatchdogDisabledMeansNoElection) {
  // Negative control for the watchdog_slices knob: with the watchdog off the
  // Strobe Sender's death is fatal — no election, every rank stranded.
  const int P = 4;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 11;
  ccfg.faults.crashManagementNode(msec(3));
  net::Cluster cluster(ccfg);

  bcsmpi::BcsMpiConfig cfg = quickCfg();
  cfg.watchdog_slices = 0;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  storm::Storm storm(cluster, scfg);
  wireControlPlane(storm, *runtime);
  storm.startHeartbeats();
  cluster.engine().at(msec(20), [&storm] { storm.stopHeartbeats(); });

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map, [&](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> out(512), in(512);
    for (int round = 0; round < 20; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), (me + 1) % P, round);
      auto rreq = comm.irecv(in.data(), in.size(), (me + P - 1) % P, round);
      comm.wait(sreq, nullptr);
      comm.wait(rreq, nullptr);
    }
  });
  cluster.run();

  EXPECT_EQ(runtime->stats().elections, 0u);
  EXPECT_EQ(runtime->stats().watchdog_fires, 0u);
  EXPECT_EQ(cluster.unfinishedProcesses().size(), static_cast<std::size_t>(P));
}

// ---------------------------------------------------------------------------
// Hung-node rejoin
// ---------------------------------------------------------------------------

struct RejoinOut {
  std::string trace;
  std::uint64_t rejoins = 0;
  std::uint64_t evictions = 0;
  std::uint64_t elections = 0;
  std::uint64_t requests_failed = 0;
  bool node5_evicted = true;
  bool node5_alive = false;
  std::size_t dead_nodes = 99;
  std::size_t unfinished = 99;
  int job2_errors = -1;
};

/// 6-node cluster; the main job runs on nodes 0-3 while node 5 hangs long
/// enough to be declared dead and evicted.  When the hang window ends its
/// heartbeats resume, it rejoins, and a second job launched onto nodes
/// {4, 5} proves the rejoined node really works again.
RejoinOut runRejoin() {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 6;
  ccfg.seed = 5150;
  ccfg.faults.hangNode(5, msec(2), msec(6));  // down [2 ms, 8 ms)
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, quickCfg());

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  scfg.max_missed_heartbeats = 3;
  storm::Storm storm(cluster, scfg);
  wireControlPlane(storm, *runtime);
  storm.startHeartbeats();
  cluster.engine().at(msec(40), [&storm] { storm.stopHeartbeats(); });

  // Main job: ring on nodes 0-3, long enough to outlast the hang, the death
  // declaration (~3.75 ms) and the rejoin (~8.5 ms).
  bcsmpi::launchJob(*runtime, {0, 1, 2, 3}, [&](mpi::Comm& comm) {
    const int P = comm.size();
    const int me = comm.rank();
    std::vector<std::uint8_t> out(1024), in(1024);
    for (int round = 0; round < 30; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), (me + 1) % P, round);
      auto rreq = comm.irecv(in.data(), in.size(), (me + P - 1) % P, round);
      comm.wait(sreq, nullptr);
      comm.wait(rreq, nullptr);
    }
  });

  // Second job, launched well after the rejoin: node 5 must carry a rank
  // again.  Failures here mean the "reintegrated" node was a zombie.
  auto job2_errors = std::make_shared<int>(0);
  cluster.engine().at(msec(12), [&cluster, runtime, job2_errors] {
    bcsmpi::launchJob(*runtime, {4, 5}, [job2_errors](mpi::Comm& comm) {
      const int peer = 1 - comm.rank();
      std::vector<std::uint8_t> out(256), in(256);
      for (int round = 0; round < 4; ++round) {
        auto sreq = comm.isend(out.data(), out.size(), peer, round);
        auto rreq = comm.irecv(in.data(), in.size(), peer, round);
        mpi::Status ss, rs;
        comm.wait(sreq, &ss);
        comm.wait(rreq, &rs);
        if (ss.error != mpi::kSuccess || rs.error != mpi::kSuccess) {
          ++*job2_errors;
        }
      }
    });
  });
  cluster.run();

  RejoinOut out;
  out.trace = cluster.trace().dump();
  out.rejoins = runtime->stats().rejoins;
  out.evictions = runtime->stats().evictions;
  out.elections = runtime->stats().elections;
  out.requests_failed = runtime->stats().requests_failed;
  out.node5_evicted = runtime->nodeEvicted(5);
  out.node5_alive = storm.nodeAlive(5);
  out.dead_nodes = storm.deadNodes().size();
  out.unfinished = cluster.unfinishedProcesses().size();
  out.job2_errors = *job2_errors;
  return out;
}

TEST(Rejoin, HungNodeIsReintegratedAndUsable) {
  const RejoinOut a = runRejoin();

  // The hang was long enough for a death declaration and eviction...
  EXPECT_EQ(a.evictions, 1u);
  // ...and the node came back: books cleared, queues rebuilt, live again.
  EXPECT_EQ(a.rejoins, 1u);
  EXPECT_FALSE(a.node5_evicted);
  EXPECT_TRUE(a.node5_alive);
  EXPECT_EQ(a.dead_nodes, 0u);

  // The Strobe Sender never died; the stall during the hang stayed below the
  // watchdog horizon.
  EXPECT_EQ(a.elections, 0u);

  // Nobody's traffic was hurt: the main job ran on other nodes, and the
  // second job ran cleanly over the rejoined node.
  EXPECT_EQ(a.unfinished, 0u);
  EXPECT_EQ(a.requests_failed, 0u);
  EXPECT_EQ(a.job2_errors, 0);
}

TEST(Rejoin, ReplayIsByteIdentical) {
  const RejoinOut a = runRejoin();
  const RejoinOut b = runRejoin();
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.rejoins, b.rejoins);
  EXPECT_EQ(a.evictions, b.evictions);
}

// ---------------------------------------------------------------------------
// The acceptance-criteria workload: 32-node fault soup + SS crash mid-run
// ---------------------------------------------------------------------------

struct SoupOut {
  std::string trace;
  std::uint64_t elections = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t suppressed_conditionals = 0;
  std::uint64_t epoch = 0;
  int strobe_node = -1;
  int mm_node = -1;
  std::size_t unfinished = 99;
  std::vector<int> completed, failed;
};

SoupOut runSoup() {
  const int P = 32;
  const int dead_node = 13;
  const int rounds = 20;

  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 20260805;
  ccfg.faults.dropRate(0.05);
  ccfg.faults.crashNode(dead_node, msec(5));
  ccfg.faults.crashManagementNode(msec(9));
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg();
  // 3 ms watchdog horizon: above the ~2.3 ms stall a compute-node crash
  // causes while heartbeats converge (no spurious election), below the test
  // budget for detecting the real SS death.
  cfg.watchdog_slices = 6;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  storm::Storm storm(cluster, scfg);
  wireControlPlane(storm, *runtime);
  storm.startHeartbeats();
  cluster.engine().at(msec(200), [&storm] { storm.stopHeartbeats(); });

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);

  SoupOut out;
  out.completed.assign(P, 0);
  out.failed.assign(P, 0);
  bcsmpi::launchJob(*runtime, map, [&](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> snd(2048), rcv(2048);
    for (int round = 0; round < rounds; ++round) {
      const int partner = me ^ (1 + (round % 7));  // xor matching, P = 32
      if (partner >= P) continue;
      auto sreq = comm.isend(snd.data(), snd.size(), partner, round);
      auto rreq = comm.irecv(rcv.data(), rcv.size(), partner, round);
      mpi::Status ss, rs;
      comm.wait(sreq, &ss);
      comm.wait(rreq, &rs);
      auto& cell = (ss.error == mpi::kSuccess && rs.error == mpi::kSuccess)
                       ? out.completed
                       : out.failed;
      ++cell[static_cast<std::size_t>(me)];
    }
  });
  cluster.run();

  out.trace = cluster.trace().dump();
  out.elections = runtime->stats().elections;
  out.evictions = runtime->stats().evictions;
  out.rejoins = runtime->stats().rejoins;
  out.suppressed_conditionals = cluster.fabric().stats().suppressed_conditionals;
  out.epoch = runtime->controlEpoch();
  out.strobe_node = runtime->strobeNode();
  out.mm_node = storm.machineManagerNode();
  out.unfinished = cluster.unfinishedProcesses().size();
  return out;
}

TEST(Soup, SsCrashMidSoupEveryJobCompletesUnderBackup) {
  const SoupOut a = runSoup();

  // Only the crashed compute node's rank is stranded; everyone else drove
  // all rounds to an outcome under the elected backup Strobe Sender.
  EXPECT_EQ(a.unfinished, 1u);
  for (int r = 0; r < 32; ++r) {
    if (r == 13) continue;
    EXPECT_EQ(a.completed[static_cast<std::size_t>(r)] +
                  a.failed[static_cast<std::size_t>(r)],
              20)
        << "rank " << r;
  }
  EXPECT_GE(a.evictions, 1u);
  EXPECT_EQ(a.elections, 1u);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.strobe_node, 0);
  EXPECT_EQ(a.mm_node, 0);
}

TEST(Soup, SsCrashMidSoupReplayIsByteIdentical) {
  const SoupOut a = runSoup();
  const SoupOut b = runSoup();
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.elections, b.elections);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
}

}  // namespace
