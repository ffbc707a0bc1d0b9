#pragma once

// The BCS core primitives (paper §2).
//
// The whole system software stack of this repository — STORM resource
// management, the BCS-MPI runtime, and the BCS API — is built exclusively on
// the three operations below, exactly as the paper prescribes:
//
//   Xfer-And-Signal   Transfers a block of data from local memory to the
//                     global memory of a set of nodes (possibly one node).
//                     Optionally signals a local and/or remote event upon
//                     completion.  Non-blocking.
//   Test-Event        Polls a local event; optionally blocks until signaled.
//   Compare-And-Write Compares (>=, <, ==, !=) a global variable on a set of
//                     nodes against a local value; if the condition holds on
//                     *all* nodes, optionally writes a new value to a
//                     (possibly different) global variable on those nodes.
//                     Atomic and sequentially consistent.
//
// Global data lives at "the same virtual address on all nodes"; here that is
// a GlobalVarId resolving to one 64-bit word per node, mirroring
// network-interface memory on QsNet.  Events are QsNet-style counted events:
// they accumulate signals and release waiters one signal at a time.
//
// Both an actor-style interface (completion callbacks — used by the NIC
// threads) and a fiber-blocking interface (used by code running inside
// simulated processes) are provided; the paper's semantics note 4 explicitly
// leaves host-CPU vs co-processor execution open.

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace bcs::core {

using GlobalVarId = int;
using GlobalEventId = int;

/// Comparison operators supported by Compare-And-Write (paper §2).
enum class CmpOp { kGE, kLT, kEQ, kNE };

const char* cmpOpName(CmpOp op);
bool cmpEval(CmpOp op, std::int64_t lhs, std::int64_t rhs);

/// Parameters of one Xfer-And-Signal invocation.
struct XferRequest {
  int src_node = 0;
  /// Destination set (may include src), read during the call only.
  std::span<const int> dest_nodes;
  std::size_t bytes = 0;        ///< Payload size for the timing model.
  /// Data movement: invoked once per destination at its delivery instant.
  /// This is where callers copy real payload bytes (the fabric itself only
  /// models time).  May be empty for pure-signal transfers.
  net::NodeCallback deliver;
  /// Event on src_node signaled once the transfer completed everywhere
  /// (-1 = none).
  GlobalEventId local_event = -1;
  /// Event signaled on every destination at its delivery instant (-1=none).
  GlobalEventId remote_event = -1;
  /// Marks the transfer as subject to random loss under an attached
  /// FaultInjector.  Only honoured on the single-destination (unicast) path;
  /// hardware multicast is reliable.
  bool droppable = false;
  /// Invoked (instead of deliver/local_event) when a single-destination
  /// transfer is lost or the endpoint is down.  Without it, loss is silent.
  net::NodeCallback on_failed;
  /// Invoked once, at the instant the transfer has completed at every
  /// destination.  With no `deliver` and no `remote_event` the hardware
  /// multicast needs no per-destination completion at all — the NIC only
  /// observes the aggregate — which is what makes a relay fan-out O(1) in
  /// engine events instead of O(destinations) (see DESIGN.md §7).
  sim::EventCallback on_all;
};

/// Parameters of one Compare-And-Write invocation.
struct CompareAndWriteRequest {
  int src_node = 0;
  std::vector<int> nodes;  ///< The set whose copies of `var` are examined.
  GlobalVarId var = -1;
  CmpOp op = CmpOp::kEQ;
  std::int64_t value = 0;
  /// Optional write phase, applied to all `nodes` iff the condition held on
  /// all of them (atomically, at one simulated instant).
  bool do_write = false;
  GlobalVarId write_var = -1;
  std::int64_t write_value = 0;
};

class BcsCore {
 public:
  BcsCore(net::Fabric& fabric, sim::Trace* trace = nullptr);

  net::Fabric& fabric() { return fabric_; }
  int numNodes() const { return fabric_.numNodes(); }

  // ---- Global variables ----

  /// Allocates a global variable (one 64-bit word per node).  Allocation is
  /// a setup-time operation (no simulated cost), like mapping global memory
  /// at job launch.
  GlobalVarId allocVar(std::string name, std::int64_t initial = 0);

  std::int64_t readVar(int node, GlobalVarId var) const;

  /// Local write to this node's copy (a NIC-memory store; free).
  void writeVarLocal(int node, GlobalVarId var, std::int64_t value);
  /// writeVarLocal of one value on nodes first..first+count-1.
  void fillVarLocal(int first, int count, GlobalVarId var,
                    std::int64_t value);

  // ---- Events ----

  GlobalEventId allocEvent(std::string name);

  /// Signals an event on `node` `count` times (a local operation).
  void signalLocal(int node, GlobalEventId ev, int count = 1);

  /// Non-blocking Test-Event: true iff at least one signal is pending.
  /// Does not consume the signal.
  bool testEvent(int node, GlobalEventId ev) const;

  /// Actor-style wait: `cb` runs (as an engine event) as soon as a signal is
  /// available, consuming it.  FIFO among waiters.
  void waitEventAsync(int node, GlobalEventId ev, std::function<void()> cb);

  /// Blocking Test-Event for code running on a simulated process fiber:
  /// consumes one signal, blocking the process until one is available.
  void testEventBlocking(sim::Process& proc, GlobalEventId ev);

  /// Number of pending (unconsumed) signals — used by tests.
  int pendingSignals(int node, GlobalEventId ev) const;

  // ---- Xfer-And-Signal ----

  /// Non-blocking put to a node set.  Completion is observable only through
  /// the events named in the request (paper §2, note 3).
  void xferAndSignal(XferRequest req);

  // ---- Compare-And-Write ----

  /// Actor-style: `on_result` runs when the conditional round completes.
  /// The request is read during the call only.
  void compareAndWriteAsync(const CompareAndWriteRequest& req,
                            sim::InlineFunction<void(bool)> on_result);

  /// Accounts a round of `req` issued at `at` (>= now) without running it,
  /// for a caller that proved the round fails: the round's record and the
  /// fabric's round counter.  The caller stands in for its result.
  void countFailedCompareAndWrite(const CompareAndWriteRequest& req,
                                  sim::SimTime at);

  /// Fiber-blocking variant: returns the condition outcome.
  bool compareAndWriteBlocking(sim::Process& proc,
                               const CompareAndWriteRequest& req);

 private:
  struct EventState {
    int pending = 0;
    std::deque<std::function<void()>> waiters;
  };

  /// The two halves of a delivered Xfer-And-Signal: per destination, data
  /// movement then the remote event; once complete everywhere, the local
  /// event then `on_all`.
  void deliverXfer(const XferRequest& req, int dest);
  void completeXfer(const XferRequest& req);

  /// The "Compare-And-Write ..." record of a round issued at `at`.
  void traceCompareAndWrite(const CompareAndWriteRequest& req,
                            sim::SimTime at);
  void checkVar(GlobalVarId var) const;
  void checkEvent(GlobalEventId ev) const;
  EventState& eventState(int node, GlobalEventId ev);
  const EventState& eventState(int node, GlobalEventId ev) const;

  net::Fabric& fabric_;
  sim::Trace* trace_;
  // vars_[var][node], events_[ev][node]
  std::vector<std::vector<std::int64_t>> vars_;
  std::vector<std::string> var_names_;
  std::vector<std::vector<EventState>> events_;
  std::vector<std::string> event_names_;

  /// Snapshot serializer (src/snapshot): global-variable replicas and event
  /// pending counts round-trip; capture refuses while any event has queued
  /// waiters (closures cannot be serialized — the slice boundary has none).
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::core
