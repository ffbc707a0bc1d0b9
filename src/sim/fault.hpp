#pragma once

// Deterministic fault injection for the simulated machine.
//
// The paper's §6 names coordinated checkpointing / fault tolerance as the
// natural extension enabled by BCS's slice-global quiescence; to exercise
// that machinery the simulator needs faults that are (a) realistic — message
// drops, link degradation, node crashes and hangs — and (b) perfectly
// reproducible, so a failing run can be replayed bit-for-bit from its seed.
//
// A FaultPlan describes *what* can go wrong; the FaultInjector turns the
// plan into concrete per-packet decisions using its own xoshiro256** stream
// (derived from the cluster seed, independent of the workload streams).
// Because the discrete-event engine is single-threaded and breaks ties
// deterministically, the injector is queried in a reproducible order and two
// runs with the same (seed, plan) produce identical fault schedules — the
// property tests/test_determinism.cpp asserts on.
//
// Scoping: random drops apply only to traffic the sender marked *droppable*
// (the DMA/put path: descriptor exchanges and chunk gets).  Hardware
// multicast and network conditionals are reliable on QsNet ("ordered,
// reliable multicast" — paper §2), so strobes, heartbeats and
// Compare-And-Write rounds never drop; they fail only when an endpoint is
// down, which is what the heartbeat/eviction protocol recovers from.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bcs::sim {

/// Declarative description of the faults a run should experience.
struct FaultPlan {
  /// Probability that one droppable packet is lost in the network.
  double drop_rate = 0.0;

  /// Probability that one droppable packet takes `degrade_latency` extra
  /// time on the wire (link-level retraining / congestion spikes).
  double degrade_rate = 0.0;
  Duration degrade_latency = usec(50);

  /// A node-level fault: from `at` the node's NIC neither sends nor
  /// receives.  `hang == 0` means a permanent crash; otherwise the node
  /// recovers after `hang` (a stall long enough to miss heartbeats but not
  /// necessarily long enough to be declared dead).
  struct NodeFault {
    int node = -1;
    SimTime at = 0;
    Duration hang = 0;
  };
  std::vector<NodeFault> node_faults;

  /// Sentinel for "the management node" in NodeFault::node.  Plans are built
  /// before the machine size is known, so the Cluster resolves this to its
  /// actual management-node index at construction.
  static constexpr int kManagementNode = -2;

  FaultPlan& dropRate(double rate) {
    drop_rate = rate;
    return *this;
  }
  FaultPlan& degrade(double rate, Duration extra) {
    degrade_rate = rate;
    degrade_latency = extra;
    return *this;
  }
  FaultPlan& crashNode(int node, SimTime at) {
    node_faults.push_back(NodeFault{node, at, 0});
    return *this;
  }
  FaultPlan& hangNode(int node, SimTime at, Duration duration) {
    node_faults.push_back(NodeFault{node, at, duration});
    return *this;
  }
  /// Crashes the management node — the Strobe Sender and STORM Machine
  /// Manager — exercising the control-plane failover protocol.
  FaultPlan& crashManagementNode(SimTime at) {
    return crashNode(kManagementNode, at);
  }
  FaultPlan& hangManagementNode(SimTime at, Duration duration) {
    return hangNode(kManagementNode, at, duration);
  }

  bool empty() const {
    return drop_rate <= 0 && degrade_rate <= 0 && node_faults.empty();
  }

  /// One-line human-readable summary, for traces and reports.
  std::string describe() const;
};

/// Aggregate injector decisions, for tests and reports.
struct FaultStats {
  std::uint64_t drops = 0;       ///< droppable packets lost
  std::uint64_t degrades = 0;    ///< packets given extra latency
  std::uint64_t forced_down = 0; ///< nodes downed at run time (forceDown)

  /// Zeroes every counter (interval measurements around a workload).
  void reset() { *this = FaultStats{}; }
};

/// Turns a FaultPlan into deterministic per-packet decisions.  One instance
/// per cluster, consulted by the Fabric.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Draws the drop decision for one droppable packet.  Consumes randomness
  /// only when drop_rate > 0, so fault-free runs keep their exact timing.
  bool shouldDrop(int src, int dst);

  /// Extra wire latency for one droppable packet (0 = not degraded).
  Duration degradeExtra();

  /// True iff `node` is crashed or inside a hang window at `now`.  A pure
  /// function of the plan and the clock — no state, no draws.
  bool nodeDown(int node, SimTime now) const;

  /// True iff some node `watched(node)` accepts is down at any instant of
  /// [from, to]: crashed by `to`, or inside a hang window that overlaps the
  /// interval.  Pure like nodeDown, and O(node faults), not O(nodes).
  template <typename Pred>
  bool anyDownDuring(SimTime from, SimTime to, Pred&& watched) const {
    for (const FaultPlan::NodeFault& f : plan_.node_faults) {
      if (f.at > to || (f.hang != 0 && f.at + f.hang <= from)) continue;
      if (watched(f.node)) return true;
    }
    return false;
  }

  /// Registers a permanent node-down fault at run time.  This is how actors
  /// that *cause* failures (e.g. Storm::killNode) publish them: the injector
  /// is the single source of truth for endpoint liveness, and the fabric's
  /// suppression produces every downstream symptom (missed heartbeats,
  /// failed sends).  Consumes no randomness.
  void forceDown(int node, SimTime at);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;

  /// Snapshot serializer (src/snapshot): restores the drop/degrade RNG
  /// stream and the counters; forced-down entries are re-applied through
  /// forceDown (they live in plan_ past the configured faults).
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::sim
