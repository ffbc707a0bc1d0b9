#pragma once

// STORM — the resource-management substrate BCS-MPI is integrated in
// (paper §4, and Frachtenberg et al., "STORM: Lightning-Fast Resource
// Management", SC'02 [8]).
//
// STORM's insight is the same as BCS-MPI's: build every resource-management
// function on the BCS core primitives so it rides the network's collective
// hardware.  Implemented here:
//
//   * Job launch: the Machine Manager (MM) transfers the job image to all
//     target nodes with a single Xfer-And-Signal multicast; the Node
//     Managers (NM) fork the processes; the MM detects global readiness
//     with Compare-And-Write.  Launch latency is therefore (nearly)
//     independent of the node count — the "orders of magnitude faster than
//     production software" claim that bench_storm_launch reproduces.
//   * Heartbeats: periodic MM strobes acknowledged through a global
//     variable; nodes missing `max_missed_heartbeats` consecutive beats are
//     declared dead (the fault-detection hook the paper's future-work
//     section builds towards).
//   * Resource accounting: per-node process slots with first-fit
//     allocation.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bcs/core.hpp"
#include "net/cluster.hpp"

namespace bcs::storm {

using sim::Duration;
using sim::SimTime;

struct StormConfig {
  Duration heartbeat_period = sim::msec(50);
  int max_missed_heartbeats = 3;
  /// NM-side cost to fork/exec one process from the transferred image.
  Duration nm_spawn_overhead = sim::usec(300);
  /// MM-side cost to prepare a launch command.
  Duration mm_dispatch_overhead = sim::usec(100);
  /// How often the MM polls for launch completion.
  Duration launch_poll_interval = sim::usec(20);
};

class Storm {
 public:
  Storm(net::Cluster& cluster, StormConfig config = {});

  core::BcsCore& core() { return core_; }
  const StormConfig& config() const { return config_; }

  // ---- Resource accounting ----

  /// kPack fills a node's slots before moving on (one job per node set);
  /// kSpread deals slots round-robin across nodes (time-shared jobs at
  /// multiprogramming level > 1, for gang scheduling).
  enum class Placement { kPack, kSpread };

  /// Allocation of `nprocs` rank slots, at most `per_node` per node.
  /// Throws if the machine is full.  Returns node_of_rank.
  std::vector<int> allocate(int nprocs, int per_node,
                            Placement placement = Placement::kPack);
  void release(const std::vector<int>& node_of_rank);
  int usedSlots(int node) const;

  // ---- Job launch ----

  /// Launches a job image of `binary_bytes` onto `nodes` (`procs_per_node`
  /// processes each).  `on_launched` fires when every NM has reported
  /// readiness through the global launch variable.
  void launchImage(const std::vector<int>& nodes, std::size_t binary_bytes,
                   int procs_per_node, std::function<void(SimTime)> on_launched);

  // ---- Heartbeats / fault detection ----

  void startHeartbeats();
  void stopHeartbeats();
  std::uint64_t heartbeatsSent() const { return hb_sent_; }
  bool nodeAlive(int node) const;
  /// Fault injection: downs the node's NIC via the cluster's FaultInjector
  /// — the single source of truth for endpoint liveness — so it stops
  /// acknowledging heartbeats (and sending anything else).
  void killNode(int node);
  /// Nodes currently considered dead by the MM.
  std::vector<int> deadNodes() const;

  /// Invoked once per node, at the instant the MM declares it dead.  This is
  /// the integration point with the BCS-MPI runtime: wire it to
  /// Runtime::notifyNodeFailure for coordinated eviction and recovery.
  void setDeathHandler(std::function<void(int)> handler) {
    death_handler_ = std::move(handler);
  }

  /// Invoked once per node when a node previously declared dead resumes
  /// acknowledging heartbeats (a hang shorter than forever).  Mirror of
  /// setDeathHandler: wire it to Runtime::notifyNodeRejoin so the node is
  /// scrubbed and reintegrated at a slice boundary.
  void setRejoinHandler(std::function<void(int)> handler) {
    rejoin_handler_ = std::move(handler);
  }

  /// Node currently hosting the Machine Manager role (heartbeat source,
  /// death/rejoin declaration).  Initially the management node.
  int machineManagerNode() const { return mm_node_; }

  /// Moves the MM role to `node` — wired to Runtime::setFailoverHandler so
  /// STORM fails over together with the Strobe Sender.  The heartbeat chain
  /// keeps its cadence; rounds simply originate from the new host.
  void failoverTo(int node);

 private:
  void heartbeatRound();
  /// The MM-side inspection of round `seq`'s acknowledgements (the second
  /// half of heartbeatRound, split out so a snapshot restore can re-arm a
  /// pending inspection at its recorded deadline).
  void inspectRound(std::int64_t seq);
  /// Arms the next heartbeatRound at `at`, recording the deadline for
  /// snapshots.
  void scheduleRound(SimTime at);

  /// One job launch awaiting every NM's acknowledgement.
  struct LaunchPoll {
    std::vector<int> nodes;
    std::int64_t seq = 0;
    SimTime t0 = 0;
    int mgmt = -1;
    std::function<void(SimTime)> on_launched;
  };
  /// One Compare-And-Write readiness round; re-arms itself until every
  /// node has acknowledged.  Only pending closures hold `launch`, so it is
  /// freed with the last round.
  void pollLaunch(std::shared_ptr<const LaunchPoll> launch);

  net::Cluster& cluster_;
  StormConfig config_;
  core::BcsCore core_;

  struct NodeInfo {
    int used_slots = 0;
    int missed = 0;  ///< MM's view: consecutive missed heartbeats
    bool marked_dead = false;
  };
  std::vector<NodeInfo> node_info_;

  core::GlobalVarId launch_var_ = -1;
  core::GlobalVarId hb_var_ = -1;
  std::int64_t launch_seq_ = 0;
  std::int64_t hb_seq_ = 0;
  bool heartbeats_on_ = false;
  std::uint64_t hb_sent_ = 0;
  int mm_node_ = -1;
  std::function<void(int)> death_handler_;
  std::function<void(int)> rejoin_handler_;

  // Heartbeat timer bookkeeping (logical mirrors of the armed engine
  // events, so snapshots can capture and re-arm them).
  SimTime next_round_at_ = 0;        ///< deadline of the armed next round
  SimTime inspect_at_ = 0;           ///< deadline of the armed inspection
  std::int64_t inspect_seq_ = 0;     ///< round the armed inspection checks
  bool inspect_pending_ = false;     ///< an inspection event is armed

  /// Snapshot serializer (src/snapshot): membership books, heartbeat
  /// counters and the timer mirrors above round-trip; restore re-arms the
  /// pending inspection and the next round from the recorded deadlines.
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::storm
