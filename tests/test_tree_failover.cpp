// Hierarchical control-plane tests (BcsMpiConfig::tree_fanout, DESIGN.md §7).
//
// The invariants under test:
//   * with a strobe-sender tree the root touches O(racks) control messages
//     per slice instead of O(nodes), and the coalesced acks are observable
//     in the runtime counters;
//   * tree-mode runs are replay-deterministic: same seed + same fault plan
//     means a byte-identical trace;
//   * a rack SS crash mid-microphase is survived: the rack's lowest live
//     member claims the epoch, promotes itself rack SS, and the interrupted
//     microphase quiesces and resumes on the period grid;
//   * a root SS crash is survived: the SS of the lowest live rack elects
//     itself backup root and re-collects the interrupted microphase's acks;
//   * simultaneous rack-SS + root loss in the 32-node fault soup resolves
//     through the single global epoch (the two levels cannot elect in
//     parallel) and replays byte-identically.

#include <gtest/gtest.h>

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

bcsmpi::BcsMpiConfig quickCfg(int tree_fanout) {
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  cfg.tree_fanout = tree_fanout;
  return cfg;
}

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
// Fault-free: counters, collectives across racks, replay determinism
// ---------------------------------------------------------------------------

struct TreeRunOut {
  std::string trace;
  std::uint64_t tree_levels = 0;
  std::uint64_t coalesced_acks = 0;
  std::uint64_t fanout_msgs = 0;
  std::uint64_t slices = 0;
  std::size_t unfinished = 99;
  long long reduced = -1;
  std::uint64_t verify_findings = 99;
};

/// Ring exchange plus one allreduce on 64 nodes; fanout 0 = flat control
/// plane, fanout > 0 = SS tree.  The workload is identical either way, so
/// the fanout_msgs_per_slice counters are directly comparable.
TreeRunOut runTree64(int fanout) {
  const int P = 64;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 777;
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg(fanout);
  cfg.verify = true;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  auto reduced = std::make_shared<long long>(-1);
  bcsmpi::launchJob(*runtime, map, [&, reduced](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> out(1024), in(1024);
    for (int round = 0; round < 6; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), (me + 1) % P, round);
      auto rreq = comm.irecv(in.data(), in.size(), (me + P - 1) % P, round);
      comm.wait(sreq, nullptr);
      comm.wait(rreq, nullptr);
    }
    // One allreduce: reduce trees and result broadcasts cross rack
    // boundaries, so the coalesced-ack gating must tolerate rack skew.
    long long contrib = me + 1, sum = 0;
    comm.allreduce(&contrib, &sum, 1, mpi::Datatype::kInt64,
                   mpi::ReduceOp::kSum);
    if (me == 0) *reduced = sum;
  });
  cluster.run();

  TreeRunOut res;
  res.trace = cluster.trace().dump();
  res.tree_levels = runtime->stats().tree_levels;
  res.coalesced_acks = runtime->stats().coalesced_acks;
  res.fanout_msgs = runtime->stats().fanout_msgs_per_slice;
  res.slices = runtime->stats().slices;
  res.unfinished = cluster.unfinishedProcesses().size();
  res.reduced = *reduced;
  const verify::VerifyReport* report = runtime->verifyAudit();
  res.verify_findings = report ? report->findings.size() : 99;
  return res;
}

TEST(TreeBasic, RootTouchesRacksNotNodes) {
  const TreeRunOut flat = runTree64(0);
  const TreeRunOut tree = runTree64(8);  // 8 racks of 8

  // Both complete the same workload cleanly.
  EXPECT_EQ(flat.unfinished, 0u);
  EXPECT_EQ(tree.unfinished, 0u);
  EXPECT_EQ(flat.reduced, 64ll * 65 / 2);
  EXPECT_EQ(tree.reduced, 64ll * 65 / 2);
  EXPECT_EQ(flat.verify_findings, 0u);
  EXPECT_EQ(tree.verify_findings, 0u);

  // Structure gauges.
  EXPECT_EQ(flat.tree_levels, 1u);
  EXPECT_EQ(tree.tree_levels, 2u);
  EXPECT_EQ(flat.coalesced_acks, 0u);
  EXPECT_GT(tree.coalesced_acks, 0u);

  // The aggregation win: per slice the flat root touches >= 64 strobe
  // destinations per microphase plus its completion polls; the tree root
  // touches 8 strobes + 8 acks per microphase.
  EXPECT_GE(flat.fanout_msgs, 5u * 64u);
  EXPECT_EQ(tree.fanout_msgs, 5u * (8u + 8u));
  EXPECT_LT(tree.fanout_msgs * 3, flat.fanout_msgs);
}

TEST(TreeBasic, ReplayIsByteIdentical) {
  const TreeRunOut a = runTree64(8);
  const TreeRunOut b = runTree64(8);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.slices, b.slices);
  EXPECT_EQ(a.coalesced_acks, b.coalesced_acks);
}

TEST(TreeBasic, RaggedLastRackCompletes) {
  // 64 nodes at fanout 24: racks of 24, 24 and 16 — the last rack is
  // partial, so the ack gating must count members, not the fanout.
  const TreeRunOut ragged = runTree64(24);
  EXPECT_EQ(ragged.unfinished, 0u);
  EXPECT_EQ(ragged.reduced, 64ll * 65 / 2);
  EXPECT_EQ(ragged.fanout_msgs, 5u * (3u + 3u));
  EXPECT_EQ(ragged.verify_findings, 0u);
}

// ---------------------------------------------------------------------------
// Rack SS crash mid-microphase (member-led election)
// ---------------------------------------------------------------------------

struct RackCrashOut {
  std::string trace;
  std::vector<sim::TraceRecord> records;
  std::uint64_t elections = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t epoch = 0;
  int strobe_node = -1;
  std::size_t unfinished = 99;
  std::vector<int> errors;
};

/// 16 nodes, fanout 4: racks {0-3, 4-7, 8-11, 12-15}, rack SSes {0,4,8,12}.
/// Node 4 (SS of rack 1, never the root) crashes at `crash_at`.  Heartbeats
/// are deliberately SLOW (4.5 ms to a death declaration) against a 2 ms
/// watchdog horizon, so the member-led election must repair the rack well
/// before eviction does — that election path is what this test pins down.
/// Eviction still arrives later to fail the dead node's traffic and let the
/// run terminate.
RackCrashOut runRackSsCrash(SimTime crash_at) {
  const int P = 16;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 31337;
  if (crash_at >= 0) ccfg.faults.crashNode(4, crash_at);
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg(4);
  cfg.watchdog_slices = 4;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(1500);
  storm::Storm storm(cluster, scfg);
  wireControlPlane(storm, *runtime);
  storm.startHeartbeats();
  cluster.engine().at(msec(60), [&storm] { storm.stopHeartbeats(); });

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  std::vector<int> errors(P, 0);
  bcsmpi::launchJob(*runtime, map, [&](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> out(1024), in(1024);
    for (int round = 0; round < 12; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), (me + 1) % P, round);
      auto rreq = comm.irecv(in.data(), in.size(), (me + P - 1) % P, round);
      mpi::Status ss, rs;
      comm.wait(sreq, &ss);
      comm.wait(rreq, &rs);
      if (ss.error != mpi::kSuccess || rs.error != mpi::kSuccess) {
        ++errors[static_cast<std::size_t>(me)];
      }
    }
  });
  cluster.run();

  RackCrashOut out;
  out.trace = cluster.trace().dump();
  out.records = cluster.trace().records();
  out.elections = runtime->stats().elections;
  out.watchdog_fires = runtime->stats().watchdog_fires;
  out.epoch = runtime->controlEpoch();
  out.strobe_node = runtime->strobeNode();
  out.unfinished = cluster.unfinishedProcesses().size();
  out.errors = errors;
  return out;
}

TEST(TreeRackSsCrash, MemberPromotedMidMicrophase) {
  // Pin the crash just after a mid-run MSM strobe, so the rack SS dies with
  // the relay/ack of that exact microphase in flight.
  const RackCrashOut ref = runRackSsCrash(-1);
  ASSERT_EQ(ref.elections, 0u);
  SimTime strobe_at = -1;
  for (const sim::TraceRecord& r : ref.records) {
    if (r.category == sim::TraceCategory::kStrobe && r.time >= msec(3) &&
        r.message.rfind("microstrobe MSM ", 0) == 0) {
      strobe_at = r.time;
      break;
    }
  }
  ASSERT_GE(strobe_at, 0) << "no mid-run MSM strobe found";

  const RackCrashOut a = runRackSsCrash(strobe_at + usec(1));

  // The rack members noticed the silence (their watchdogs fired), but an
  // epoch claim cannot succeed while the dead SS still sits in the live
  // set — exactly like flat mode, the claim retries until the heartbeat
  // eviction lands.  The eviction itself repairs the rack first: the lowest
  // surviving member is promoted rack SS from within the rack and the
  // interrupted microphase is re-strobed, so the claim finds strobes
  // flowing again and stands down without ever bumping the epoch.
  EXPECT_GE(a.watchdog_fires, 1u);
  EXPECT_EQ(a.elections, 0u);
  EXPECT_EQ(a.epoch, 0u);
  const std::size_t promoted = std::count_if(
      a.records.begin(), a.records.end(), [](const sim::TraceRecord& r) {
        return r.category == sim::TraceCategory::kFailover &&
               r.message.find("promoted to rack Strobe Sender of rack 1") !=
                   std::string::npos;
      });
  EXPECT_GE(promoted, 1u);
  // The root never died: no backup-root election.
  const std::size_t root_elected = std::count_if(
      a.records.begin(), a.records.end(), [](const sim::TraceRecord& r) {
        return r.category == sim::TraceCategory::kFailover &&
               r.message.find("elected backup root") != std::string::npos;
      });
  EXPECT_EQ(root_elected, 0u);

  // Ranks that never talk to the dead node ran all 12 rounds cleanly; only
  // the dead node's own fiber is stranded (its neighbours' requests fail in
  // error once the heartbeat eviction lands).
  int clean = 0;
  for (int r = 0; r < 16; ++r) {
    if (r >= 3 && r <= 5) continue;  // ring neighbourhood of the dead node
    clean += (a.errors[static_cast<std::size_t>(r)] == 0) ? 1 : 0;
  }
  EXPECT_EQ(clean, 13);
  EXPECT_EQ(a.unfinished, 1u);

  // Replay: byte-identical.
  const RackCrashOut b = runRackSsCrash(strobe_at + usec(1));
  EXPECT_EQ(a.trace, b.trace);
}

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

TEST(TreeRackSsCrash, SuspicionAndPromotionInstantsArePinned) {
  // The members' watchdogs re-arm on their own schedule, but a silent rack
  // Strobe Sender is suspected exactly `watchdog_slices` slices after the
  // last strobe its members heard.
  const SimTime strobe_at =
      midRunStrobeAt(runRackSsCrash(-1).records, "MSM");
  ASSERT_GE(strobe_at, 0);
  const RackCrashOut a = runRackSsCrash(strobe_at + usec(1));
  EXPECT_EQ(firstFailoverAt(a.records, "slice watchdog fired"), 5'059'270);
  EXPECT_EQ(firstFailoverAt(a.records,
                            "promoted to rack Strobe Sender of rack 1"),
            8'250'000);
}

// ---------------------------------------------------------------------------
// Root SS crash (rack-SS-led election)
// ---------------------------------------------------------------------------

struct RootCrashOut {
  std::string trace;
  std::vector<sim::TraceRecord> records;
  std::uint64_t elections = 0;
  std::uint64_t epoch = 0;
  int strobe_node = -1;
  int mm_node = -1;
  std::size_t unfinished = 99;
  int errors = 0;
};

/// 16 nodes, fanout 4.  The management node (initial root SS and Machine
/// Manager) crashes at `crash_at`; the SS of rack 0 (node 0) must elect
/// itself backup root and re-collect the interrupted microphase's acks.
RootCrashOut runRootCrash(SimTime crash_at) {
  const int P = 16;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 90210;
  if (crash_at >= 0) ccfg.faults.crashManagementNode(crash_at);
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg(4);
  cfg.watchdog_slices = 4;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  storm::Storm storm(cluster, scfg);
  wireControlPlane(storm, *runtime);
  storm.startHeartbeats();
  cluster.engine().at(msec(60), [&storm] { storm.stopHeartbeats(); });

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  auto errors = std::make_shared<int>(0);
  bcsmpi::launchJob(*runtime, map, [&, errors](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> out(1024), in(1024);
    for (int round = 0; round < 12; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), (me + 1) % P, round);
      auto rreq = comm.irecv(in.data(), in.size(), (me + P - 1) % P, round);
      mpi::Status ss, rs;
      comm.wait(sreq, &ss);
      comm.wait(rreq, &rs);
      if (ss.error != mpi::kSuccess || rs.error != mpi::kSuccess) ++*errors;
    }
  });
  cluster.run();

  RootCrashOut out;
  out.trace = cluster.trace().dump();
  out.records = cluster.trace().records();
  out.elections = runtime->stats().elections;
  out.epoch = runtime->controlEpoch();
  out.strobe_node = runtime->strobeNode();
  out.mm_node = storm.machineManagerNode();
  out.unfinished = cluster.unfinishedProcesses().size();
  out.errors = *errors;
  return out;
}

TEST(TreeRootCrash, RackSsElectedBackupRoot) {
  const RootCrashOut ref = runRootCrash(-1);
  ASSERT_EQ(ref.elections, 0u);
  SimTime strobe_at = -1;
  for (const sim::TraceRecord& r : ref.records) {
    if (r.category == sim::TraceCategory::kStrobe && r.time >= msec(3) &&
        r.message.rfind("microstrobe P2P ", 0) == 0) {
      strobe_at = r.time;
      break;
    }
  }
  ASSERT_GE(strobe_at, 0) << "no mid-run P2P strobe found";

  const RootCrashOut a = runRootCrash(strobe_at + usec(1));

  // All ranks live on compute nodes: the root's death costs coordination
  // only.  Node 0 — SS of the lowest live rack — takes both roles.
  EXPECT_EQ(a.unfinished, 0u);
  EXPECT_EQ(a.errors, 0);
  EXPECT_EQ(a.elections, 1u);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.strobe_node, 0);
  EXPECT_EQ(a.mm_node, 0);
  const std::size_t root_elected = std::count_if(
      a.records.begin(), a.records.end(), [](const sim::TraceRecord& r) {
        return r.category == sim::TraceCategory::kFailover &&
               r.message.find("elected backup root Strobe Sender") !=
                   std::string::npos;
      });
  EXPECT_EQ(root_elected, 1u);

  const RootCrashOut b = runRootCrash(strobe_at + usec(1));
  EXPECT_EQ(a.trace, b.trace);
}

TEST(TreeRootCrash, SuspicionAndElectionInstantsArePinned) {
  const SimTime strobe_at = midRunStrobeAt(runRootCrash(-1).records, "P2P");
  ASSERT_GE(strobe_at, 0);
  const RootCrashOut a = runRootCrash(strobe_at + usec(1));
  EXPECT_EQ(firstFailoverAt(a.records, "slice watchdog fired"), 5'208'172);
  EXPECT_EQ(firstFailoverAt(a.records, "elected backup root Strobe Sender"),
            5'213'672);
}

// ---------------------------------------------------------------------------
// Simultaneous rack-SS + root loss in the 32-node fault soup
// ---------------------------------------------------------------------------

struct TreeSoupOut {
  std::string trace;
  std::uint64_t elections = 0;
  std::uint64_t evictions = 0;
  std::uint64_t epoch = 0;
  std::size_t unfinished = 99;
  std::vector<int> completed, failed;
};

/// 32 nodes, fanout 8: racks {0-7, 8-15, 16-23, 24-31}.  Node 8 (SS of
/// rack 1) and the management node (the root) both die in one run while 5%
/// of droppable packets are lost: the rack SS first (heartbeats declare it
/// and the rack promotes node 9 from within), then the root before the
/// machine has settled (an epoch claim needs the dead rack SS already out
/// of the live quorum, exactly as in flat mode).  Rack repair and root
/// election must serialize through the single global epoch.
TreeSoupOut runTreeSoup() {
  const int P = 32;
  const int rounds = 20;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 20260808;
  ccfg.faults.dropRate(0.05);
  ccfg.faults.crashNode(8, msec(5));
  ccfg.faults.crashManagementNode(msec(9));
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg(8);
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

  TreeSoupOut out;
  out.completed.assign(P, 0);
  out.failed.assign(P, 0);
  bcsmpi::launchJob(*runtime, map, [&](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> snd(2048), rcv(2048);
    for (int round = 0; round < rounds; ++round) {
      const int partner = me ^ (1 + (round % 7));
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
  out.epoch = runtime->controlEpoch();
  out.unfinished = cluster.unfinishedProcesses().size();
  return out;
}

TEST(TreeSoup, SimultaneousRackAndRootLossResolves) {
  const TreeSoupOut a = runTreeSoup();

  // Only the crashed compute node's rank is stranded; every survivor drove
  // all 20 rounds to an outcome under the repaired control plane.
  EXPECT_EQ(a.unfinished, 1u);
  for (int r = 0; r < 32; ++r) {
    if (r == 8) continue;
    EXPECT_EQ(a.completed[static_cast<std::size_t>(r)] +
                  a.failed[static_cast<std::size_t>(r)],
              20)
        << "rank " << r;
  }
  // The dead rack SS was heartbeat-evicted; the dead root cost at least one
  // election (the rack-level repair may resolve via eviction first, so the
  // exact count is plan-dependent — the epoch pins the total).
  EXPECT_GE(a.evictions, 1u);
  EXPECT_GE(a.elections, 1u);
  EXPECT_EQ(a.epoch, a.elections);
}

// ---------------------------------------------------------------------------
// Tree-aware finalize audit: a stuck coalesced ack is reported per rack
// ---------------------------------------------------------------------------

TEST(TreeAudit, StuckCoalescedAckReportedWithRackProvenance) {
  // 16 nodes, fanout 4; node 4 (SS of rack 1) crashes with failover fully
  // disabled (no watchdogs, no heartbeats), so rack 1's coalesced ack for
  // the interrupted microphase can never reach the root and the machine
  // deadlocks.  The finalize audit must pin the leak on rack 1.
  const int P = 16;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 4242;
  ccfg.faults.crashNode(4, sim::msec(3));
  net::Cluster cluster(ccfg);

  bcsmpi::BcsMpiConfig cfg = quickCfg(4);
  cfg.watchdog_slices = 0;
  cfg.verify = true;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

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

  // The run deadlocked (every surviving rank is stuck waiting); audit it.
  ASSERT_GT(cluster.unfinishedProcesses().size(), 0u);
  const verify::VerifyReport* report = runtime->verifyAudit();
  ASSERT_NE(report, nullptr);
  EXPECT_GT(report->counts[static_cast<int>(verify::Category::kLeakedAck)],
            0u);
  bool rack1_reported = false;
  for (const verify::Finding& f : report->findings) {
    if (f.category != verify::Category::kLeakedAck) continue;
    if (f.detail.find("rack 1") != std::string::npos) rack1_reported = true;
  }
  EXPECT_TRUE(rack1_reported);
}

TEST(TreeSoup, ReplayIsByteIdentical) {
  const TreeSoupOut a = runTreeSoup();
  const TreeSoupOut b = runTreeSoup();
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.elections, b.elections);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
}

}  // namespace
