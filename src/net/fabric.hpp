#pragma once

// The interconnect fabric: timing model for unicasts, multicasts and network
// conditionals over a fat tree.
//
// The fabric is a *timing* oracle: callers pass callbacks and the fabric
// invokes them at the simulated instants where the corresponding hardware
// would raise its events.  Data movement itself (copying payload bytes into
// destination buffers, signalling QsNet-style events) is layered on top by
// the BCS core (src/bcs) — this keeps the fabric reusable for the baseline
// MPI as well.
//
// Point-to-point cost model (LogGP-flavoured):
//
//     inject  = now + o_tx + pci_lat
//     startTx = max(inject, egressFree[src]);  egress busy for G*S
//     arrival = startTx + L(src,dst) + G*S     (cut-through pipe)
//     deliver = max(arrival, ingressFree[dst] + G*S) + o_rx
//
// so an uncontended transfer costs o_tx + L + G*S + o_rx and endpoints
// serialize under contention — the behaviour that matters for the paper's
// nearest-neighbour and alltoall patterns.
//
// Hardware multicast occupies the source egress once and the switch fans the
// packet out; per-destination delivery bandwidth comes from
// NetworkParams::mcast_bandwidth.  Networks without hardware support fall
// back to a binomial software tree of unicasts with a per-level software
// step (sw_step_latency), which reproduces the 46/20 us-per-level rows of
// the paper's Table 1.
//
// The network conditional evaluates a predicate on a node set at one
// simulated instant and (optionally) writes a value back at that same
// instant — this is what makes Compare-And-Write sequentially consistent.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "net/params.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace bcs::net {

using sim::Duration;
using sim::EventCallback;
using sim::SimTime;

/// Per-destination callback: receives the node a delivery landed on.
using NodeCallback = sim::InlineFunction<void(int)>;

/// Aggregate fabric statistics, for utilization reports and tests.  All
/// counters are std::uint64_t (payload_bytes included — it used to be a
/// double, which silently loses exactness past 2^53 bytes).
struct FabricStats {
  std::uint64_t unicasts = 0;
  std::uint64_t multicasts = 0;
  std::uint64_t conditionals = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t drops = 0;         ///< droppable unicasts lost at random
  std::uint64_t failed_sends = 0;  ///< unicasts to/from a down endpoint
  std::uint64_t suppressed_deliveries = 0;  ///< multicast legs to down nodes
  std::uint64_t suppressed_conditionals = 0;  ///< rounds whose issuer died

  /// Zeroes every counter (interval measurements around a workload).
  void reset() { *this = FabricStats{}; }
  bool operator==(const FabricStats&) const = default;
};

/// What a stretch of fabric activity did, relative to the instant it began
/// on a quiet fabric (Fabric::quiet): its counter deltas and the endpoint
/// free-times it left behind, as offsets from that instant.  Applying it at
/// another quiet instant reproduces the stretch's effect on the fabric.
struct FabricDelta {
  FabricStats stats;
  /// Nodes first..first+count-1 whose free-time on one side moved to one
  /// offset, as a multicast's destinations do.
  struct Busy {
    int first = 0;
    int count = 0;
    bool ingress = false;  ///< ingress free-times, else egress
    Duration offset = 0;
  };
  std::vector<Busy> busy;
};

/// Per-send options for unicast.  Default-constructed == the historical
/// behaviour: reliable delivery, no failure notification.
struct SendOptions {
  /// Marks the packet as subject to random loss/degradation from the
  /// FaultPlan.  Senders of protocol-critical traffic (strobes, heartbeats)
  /// leave this false: on QsNet those paths are hardware-reliable and fail
  /// only when an endpoint is down.
  bool droppable = false;
  /// Invoked (instead of on_delivered) when the transfer is lost or an
  /// endpoint is down, at the instant the sender's ack timer would expire.
  /// Without it, a lost packet is silently dropped.
  EventCallback on_failed;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, NetworkParams params, int num_nodes,
         sim::Trace* trace = nullptr);

  int numNodes() const { return num_nodes_; }
  const NetworkParams& params() const { return params_; }
  const FatTree& topology() const { return tree_; }

  /// End-to-end first-bit latency between two nodes (no payload term).
  Duration baseLatency(int src, int dst) const;

  /// Sends `bytes` from src to dst.  `on_delivered` fires at the instant the
  /// last byte (plus rx overhead) lands at dst; `on_injected` (optional)
  /// fires when the source NIC egress is free again.  Under an attached
  /// FaultInjector the transfer may be lost (see SendOptions).
  void unicast(int src, int dst, std::size_t bytes, EventCallback on_delivered,
               EventCallback on_injected = {}, SendOptions opts = {});

  /// Multicasts `bytes` from src to every node in `dest_set` (src excluded
  /// automatically if present; duplicates count once).  The set is read
  /// during the call only: it is copied into recycled leg storage, so a
  /// warm fabric allocates nothing for it, and a set that is already sorted
  /// and duplicate-free is not sorted again.  `on_delivered_at(node)` fires
  /// per destination — one callback shared by every leg, never copied — and
  /// `on_all` (optional) once after the last delivery.  With hardware
  /// multicast, one engine event runs every leg that lands at the same
  /// instant, in ascending node order.
  void multicast(int src, std::span<const int> dest_set, std::size_t bytes,
                 NodeCallback on_delivered_at, EventCallback on_all = {});

  /// Network conditional: at one instant T (= now + conditional latency),
  /// evaluates eval(node) for each node in `nodes`; if all are true, runs
  /// write(node) for each node at T.  on_result(all_true) also runs at T.
  /// The node set is copied once into a recycled round.  This is the
  /// substrate for Compare-And-Write.
  void conditional(int src, const std::vector<int>& nodes,
                   sim::InlineFunction<bool(int)> eval, NodeCallback write,
                   sim::InlineFunction<void(bool)> on_result);

  /// Counts a conditional round that was issued but not run: its caller
  /// proved it evaluates false and writes nothing.
  void countConditional() { ++stats_.conditionals; }

  /// Latency of one conditional round for `n` participating nodes.
  Duration conditionalLatency(int n) const;

  /// First-bit latency of a multicast reaching every destination.
  Duration multicastLatency() const;

  /// Counters since construction (see FabricStats).
  const FabricStats& stats() const { return stats_; }

  // ---- Replaying a recorded stretch (bcsmpi quiescent slices) ----

  /// True iff no endpoint is busy past `now`.  Every transfer started from
  /// a quiet instant finds its wires free, so its timing depends only on
  /// how long after that instant it starts.  O(1): free-times only grow.
  bool quiet(SimTime now) const { return busy_until_ <= now; }

  /// One node's NIC: the instants its egress and ingress are free again.
  struct Endpoint {
    SimTime egress_free = 0;
    SimTime ingress_free = 0;
  };
  /// Counters and endpoint free-times at one instant, to diff against.
  struct Mark {
    FabricStats stats;
    std::vector<Endpoint> endpoints;
  };
  /// Fills `m` with the current state, reusing its capacity.
  void mark(Mark& m) const {
    m.stats = stats_;
    m.endpoints = endpoints_;
  }
  /// What changed since `m`, free-times as offsets from `base`.
  FabricDelta deltaSince(const Mark& m, SimTime base) const;
  /// Replays `d` at `base`: adds its counters and sets its free-times.
  void apply(const FabricDelta& d, SimTime base);

  /// Attaches (or detaches, with nullptr) a fault injector.  Not owned; must
  /// outlive the fabric or be detached first.
  void setFaultInjector(sim::FaultInjector* injector) { fault_ = injector; }
  sim::FaultInjector* faultInjector() const { return fault_; }

  sim::Engine& engine() { return engine_; }

 private:
  /// Recycled storage: slots keep their vectors' capacity, and a deque
  /// keeps a slot in place while its callbacks run.  A slot is freed when
  /// its last event is done, also when a callback of that event throws.
  template <typename T>
  struct Slots {
    std::deque<T> items;
    std::vector<std::uint32_t> free;
    std::uint32_t acquire() {
      if (free.empty()) {
        items.emplace_back();
        // Room for every slot, so freeing one (on unwind too) never
        // allocates.
        free.reserve(items.size());
        return static_cast<std::uint32_t>(items.size() - 1);
      }
      const std::uint32_t i = free.back();
      free.pop_back();
      return i;
    }
  };
  /// A conditional round between its issue and its evaluation.
  struct Round {
    int src = 0;
    std::vector<int> nodes;
    sim::InlineFunction<bool(int)> eval;
    NodeCallback write;
    sim::InlineFunction<void(bool)> on_result;
  };
  /// A hardware multicast's live legs and the callback they share, until
  /// its last completion instant.
  struct Legs {
    std::vector<int> dests;
    NodeCallback per_dest;
    std::uint32_t instants = 0;  ///< leg events still to fire
  };

  void softwareMulticast(int src, std::span<const int> dests,
                         std::size_t bytes, NodeCallback on_delivered_at,
                         EventCallback on_all);
  /// Schedules the live legs in `slot` (ingress already updated): one
  /// event per distinct completion instant.
  void scheduleLegs(std::uint32_t slot);
  void fireLegs(std::uint32_t slot, std::uint32_t begin, std::uint32_t end);
  void releaseLegs(std::uint32_t slot);
  void evaluate(std::uint32_t slot);
  void releaseRound(std::uint32_t slot);

  void checkNode(int node) const;
  /// Sets an endpoint free-time, keeping busy_until_ the latest of them.
  void setFree(SimTime& free_at, SimTime at) {
    free_at = at;
    busy_until_ = std::max(busy_until_, at);
  }

  sim::Engine& engine_;
  NetworkParams params_;
  int num_nodes_;
  FatTree tree_;
  std::vector<Endpoint> endpoints_;
  /// The latest endpoint free-time.  Every write moves a free-time forward
  /// (replays apply theirs at a quiet instant), so this is their maximum.
  SimTime busy_until_ = 0;
  sim::Trace* trace_;
  sim::FaultInjector* fault_ = nullptr;
  FabricStats stats_;
  Slots<Round> rounds_;
  Slots<Legs> legs_;

  /// Snapshot serializer (src/snapshot): endpoint free-times and the stats
  /// round-trip.
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::net
