// Hierarchical control plane (DESIGN.md §7) — active iff
// BcsMpiConfig::tree_fanout > 0.
//
// The flat Strobe Sender touches O(nodes) control messages per microphase:
// one multicast leg per Strobe Receiver plus a Compare-And-Write poll over
// the whole live set.  At 512+ nodes that serializes the whole slice behind
// the root's NIC.  Here the strobe set is a two-level k-ary tree instead:
//
//   root SS ── microstrobe ──> rack SS (one per fanout-sized rack)
//                              relays to its members (aggregate-completion
//                              multicast: ONE engine event per rack),
//                              runs the local half of the scheduling
//                              microphases, and coalesces its members'
//                              completions into ONE upward ack.
//
// So the root touches O(racks) messages per microphase and never polls —
// phase transitions are push-driven by the coalesced acks.  Failover reuses
// the epoch-fenced Compare-And-Write election per level: a dead rack SS is
// replaced from within its rack, a dead root from among the rack SSes.
//
// A member does a flat node's work in each microphase: the fan-out runs
// the shared Strobe Receiver body (Runtime::runPhase, phases.cpp), which
// differs only in how the floor and DEM drain tokens are released.  What
// stays tree-only is here: the relays, the rack's shared floor and drain
// events, the coalesced acks and the per-level failover.
//
// Timing inside a rack is deliberately coarser than flat mode (members
// share one floor event and one DEM drain event per rack instead of one
// timer each) — that is the point of the aggregation.  Tree-mode schedules
// are therefore pinned by their own golden traces; flat mode
// (tree_fanout = 0) bypasses every function in this file and stays
// byte-identical to the historical goldens.

#include "bcsmpi/runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace bcs::bcsmpi {

// ---------------------------------------------------------------------------
// Downward path: root -> rack SSes -> members
// ---------------------------------------------------------------------------

void Runtime::strobePhaseTree(Phase p, std::uint64_t seq) {
  tree_phase_ = p;
  tree_phase_open_ = true;
  // Reused scratch: the strobe reads its destination set during the call
  // only, so a warm tree slice allocates nothing for it.
  std::vector<int>& ss_nodes = strobe_dests_;
  ss_nodes.clear();
  for (int r = 0; r < sstree_.rackCount(); ++r) {
    if (sstree_.members(r).empty()) continue;
    const int ss = sstree_.ss(r);
    if (ss != strobe_node_) ss_nodes.push_back(ss);
  }
  const bool self_rack = strobe_node_ < cluster_.numComputeNodes();
  root_msgs_slice_ +=
      static_cast<std::uint64_t>(ss_nodes.size()) + (self_rack ? 1u : 0u);
  const std::uint64_t epoch = control_epoch_;
  if (!ss_nodes.empty()) {
    core::XferRequest strobe;
    strobe.src_node = strobe_node_;
    strobe.dest_nodes = ss_nodes;
    strobe.bytes = 16;  // phase id + sequence number
    strobe.deliver = [this, p, seq, epoch](int node) {
      if (epoch != control_epoch_) return;
      onRackStrobe(sstree_.rackOf(node), p, seq);
    };
    core_.xferAndSignal(std::move(strobe));
  }
  if (self_rack) {
    // A backup root is itself a compute node and (by election) the SS of its
    // own rack; it hears the strobe through NIC-local memory.
    const int rack = sstree_.rackOf(strobe_node_);
    cluster_.engine().at(cluster_.engine().now(), [this, p, seq, epoch, rack] {
      if (epoch != control_epoch_) return;
      onRackStrobe(rack, p, seq);
    });
  }
}

void Runtime::onRackStrobe(int rack, Phase p, std::uint64_t seq) {
  const std::vector<int>& members = sstree_.members(rack);
  if (members.empty()) return;
  const int ss = sstree_.ss(rack);
  if (nodeEvicted(ss)) return;  // strobe raced an eviction
  // A strobe reaching the rack SS is proof of root life.
  hearStrobe(ss, cluster_.engine().now());
  TreeRackState& rk = tree_racks_[static_cast<std::size_t>(rack)];
  if (seq < rk.seq) return;  // stale duplicate from an abandoned recovery
  if (seq == rk.seq) {
    // Recovery re-strobe of a microphase already relayed: skip the relay and
    // re-walk the members directly — the fan-out is idempotent.
    rackFanout(rack, p, seq);
    return;
  }
  rk.seq = seq;
  std::vector<int>& dests = relay_dests_;  // read during the relay call only
  dests.clear();
  for (int m : members) {
    if (m != ss) dests.push_back(m);
  }
  if (dests.empty()) {
    cluster_.engine().at(cluster_.engine().now(),
                         [this, rack, p, seq] { rackFanout(rack, p, seq); });
    return;
  }
  // Relay to the members with aggregate completion only: no per-destination
  // callback means the fabric schedules ONE engine event for the whole rack
  // (see XferRequest::on_all).  The fan-out is O(1) in engine events, not
  // in host work: the multicast still updates every member's ingress.
  core::XferRequest relay;
  relay.src_node = ss;
  relay.dest_nodes = dests;
  relay.bytes = 16;
  relay.on_all = [this, rack, p, seq] { rackFanout(rack, p, seq); };
  core_.xferAndSignal(std::move(relay));
}

void Runtime::rackFanout(int rack, Phase p, std::uint64_t seq) {
  TreeRackState& rk = tree_racks_[static_cast<std::size_t>(rack)];
  if (seq != rk.seq) return;  // superseded while the relay was in flight
  const std::vector<int>& members = sstree_.members(rack);
  if (members.empty()) return;
  const SimTime now = cluster_.engine().now();
  if (cluster_.faults()->nodeDown(sstree_.ss(rack), now)) {
    // The rack SS died mid-relay; the member-level watchdogs will promote a
    // successor, whose re-strobe re-enters here.
    return;
  }
  Duration max_busy = 0;
  int inited = 0;
  int pending = 0;
  bool any_drain = false;
  NodeControl& c = *ctl_;
  for (int m : members) {
    if (c.phase_seq[m] >= seq) {
      // Already in (or past) this phase — a recovery re-strobe re-enters
      // here with members that hold tokens from the original strobe; they
      // stay pending until their ops drain.
      if (c.phase_seq[m] == seq && c.outstanding[m] > 0) ++pending;
      continue;
    }
    if (cluster_.faults()->nodeDown(m, now)) {
      // A hung member is skipped, not waited for: the rack acks without
      // it and heartbeat eviction (or a rejoin) repairs it later.
      continue;
    }
    hearStrobe(m, now);
    if (nodeIdle(nodeState(m), p)) {
      // Idle fast path: the member observes the strobe (sequence number
      // and watchdog above) but holds no completion tokens — there is no
      // process to wake, nothing to drain, match, get or execute, so the
      // phase-done write and the token bookkeeping would be pure
      // overhead.  In the sparse steady state this is every member, and
      // skipping it keeps an all-idle rack's engine events O(1) per
      // microphase.  Its host cost is still O(members): this loop visits
      // every member, and the relay multicast updated every member's
      // ingress (ROADMAP lists the measured profile).
      c.phase_seq[m] = seq;
      c.outstanding[m] = 0;
      c.tree_floor[m] = false;
      c.tree_drain[m] = false;
      continue;
    }
    // The member's NIC threads, as a flat node runs them (phases.cpp);
    // its floor token waits for the rack's floor event below.
    max_busy = std::max(max_busy, runPhase(m, p, seq));
    // Counted pending unconditionally: the floor token taken in runPhase
    // can only be released by a later engine event, never within this
    // call.
    ++inited;
    ++pending;
    if (p == Phase::kDem) any_drain = true;
  }
  rk.pending = pending;
  if (any_drain) {
    // ONE descriptor-FIFO drain event for the whole rack (flat mode arms one
    // per node).
    cluster_.engine().after(config_.dem_drain_window,
                            [this, rack, seq] { treeDrain(rack, seq); });
  }
  if (inited > 0) {
    // ONE phase-floor event for the whole rack, at the slowest member's
    // busy time.  An all-idle rack schedules nothing and acks immediately
    // below: the phase floor models NIC descriptor processing, and an idle
    // NIC has no descriptors to process.
    if (max_busy <= 0) {
      cluster_.engine().at(now,
                           [this, rack, seq] { treeReleaseFloor(rack, seq); });
    } else {
      cluster_.engine().after(
          max_busy, [this, rack, seq] { treeReleaseFloor(rack, seq); });
    }
  }
  if (rk.pending == 0) sendRackAck(rack, seq);
}

void Runtime::treeReleaseFloor(int rack, std::uint64_t seq) {
  NodeControl& c = *ctl_;
  for (int m : sstree_.members(rack)) {
    if (c.tree_floor[m] && c.phase_seq[m] == seq) {
      c.tree_floor[m] = false;
      opFinished(m);
    }
  }
}

void Runtime::treeDrain(int rack, std::uint64_t seq) {
  NodeControl& c = *ctl_;
  for (int m : sstree_.members(rack)) {
    if (c.tree_drain[m] && c.phase_seq[m] == seq) {
      c.tree_drain[m] = false;
      drainDescriptorFifos(m);
      opFinished(m);
    }
  }
}

// ---------------------------------------------------------------------------
// Upward path: members -> rack SS -> root
// ---------------------------------------------------------------------------

void Runtime::treeMemberDone(int node) {
  if (nodeEvicted(node)) return;
  const int rack = sstree_.rackOf(node);
  TreeRackState& rk = tree_racks_[static_cast<std::size_t>(rack)];
  if (ctl_->phase_seq[node] != rk.seq) return;  // stale completion
  if (rk.pending > 0 && --rk.pending == 0 && rk.acked_seq < rk.seq) {
    sendRackAck(rack, rk.seq);
  }
}

void Runtime::sendRackAck(int rack, std::uint64_t seq) {
  const int ss = sstree_.ss(rack);
  const SimTime now = cluster_.engine().now();
  if (ss < 0 || nodeEvicted(ss) || cluster_.faults()->nodeDown(ss, now)) {
    return;
  }
  ++stats_.coalesced_acks;
  const std::uint64_t epoch = control_epoch_;
  if (ss == strobe_node_) {
    // The root heads this rack itself; the ack is a NIC-local write.
    cluster_.engine().at(now, [this, rack, seq, epoch] {
      if (epoch != control_epoch_) return;
      onRackAck(rack, seq);
    });
    return;
  }
  core::XferRequest ack;
  ack.src_node = ss;
  ack.dest_nodes = {&strobe_node_, 1};
  // Coalesced completion plus the rack's descriptor summary for the global
  // half of the MSM — one message upward per rack per microphase.
  ack.bytes = 64;
  ack.deliver = [this, rack, seq, epoch](int) {
    if (epoch != control_epoch_) return;
    onRackAck(rack, seq);
  };
  core_.xferAndSignal(std::move(ack));
}

void Runtime::onRackAck(int rack, std::uint64_t seq) {
  if (stop_requested_) return;
  if (seq != phase_seq_) return;  // ack for an abandoned microphase
  TreeRackState& rk = tree_racks_[static_cast<std::size_t>(rack)];
  if (rk.acked_seq >= seq) return;  // duplicate (recovery re-ack)
  rk.acked_seq = seq;
  ++root_msgs_slice_;
  maybeTreePhaseDone();
}

void Runtime::maybeTreePhaseDone() {
  if (!tree_phase_open_ || stop_requested_ || phase_seq_ == 0) return;
  for (int r = 0; r < sstree_.rackCount(); ++r) {
    if (sstree_.members(r).empty()) continue;
    if (tree_racks_[static_cast<std::size_t>(r)].acked_seq < phase_seq_) {
      return;
    }
  }
  tree_phase_open_ = false;
  if (tree_recovering_) {
    // Every live rack re-acked the interrupted microphase: the machine is
    // quiescent.  Abandon the rest of the slice and resume on the grid,
    // mirroring the flat recoverPhase semantics.
    tree_recovering_ = false;
    resumeStrobe();
    return;
  }
  phaseComplete(tree_phase_);
}

// ---------------------------------------------------------------------------
// Failover: per-level elections and tree repair
// ---------------------------------------------------------------------------

void Runtime::treeRecover() {
  if (stop_requested_ || live_compute_nodes_.empty()) {
    strobing_ = false;
    return;
  }
  if (phase_seq_ == 0) {
    // Nothing was ever strobed; just take over the grid.
    resumeStrobe();
    return;
  }
  // The promoted root never saw the old root's ack bookkeeping: restart the
  // collection from scratch and re-strobe the interrupted microphase.  The
  // relays and fan-outs are idempotent (members already at this seq are not
  // re-initialized; racks re-ack from their own state), so this is a pure
  // global quiesce.
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
      strobe_node_, [&] {
        return "re-strobing microphase seq " + std::to_string(phase_seq_) +
               " to re-collect rack acks";
      });
  tree_recovering_ = true;
  for (TreeRackState& rk : tree_racks_) rk.acked_seq = 0;
  strobePhaseTree(tree_phase_, phase_seq_);
}

void Runtime::onWatchdogTree(int node) {
  const SimTime now = cluster_.engine().now();
  const int rack = sstree_.rackOf(node);
  const int ss = sstree_.ss(rack);
  if (ss == node) {
    // Rack SSes hear the root directly: silence means the root is suspect.
    // The deterministic claim leader is the SS of the lowest live rack.
    if (node != sstree_.firstLiveRackSs()) {
      armWatchdogAt(node, now + watchdogTimeout());
      return;
    }
    beginTreeElection(node);
    return;
  }
  // A plain member is strobed by its rack SS.  While the SS is up the
  // silence is the root's problem — the SS-level ladder above owns that;
  // keep watching.  Only a dead rack SS makes a member act.
  if (!cluster_.faults()->nodeDown(ss, now)) {
    armWatchdogAt(node, now + watchdogTimeout());
    return;
  }
  int leader = -1;
  for (int m : sstree_.members(rack)) {
    if (m != ss) {
      leader = m;
      break;
    }
  }
  if (node != leader) {
    armWatchdogAt(node, now + watchdogTimeout());
    return;
  }
  beginTreeElection(node);
}

void Runtime::beginTreeElection(int node) {
  const int rack = sstree_.rackOf(node);
  const bool was_rack_ss = sstree_.ss(rack) == node;
  claimEpoch(
      node, was_rack_ss ? "root Strobe Sender" : "rack Strobe Sender",
      [this, node, rack, was_rack_ss] {
        const SimTime now = cluster_.engine().now();
        if (!was_rack_ss) {
          const int old_ss = sstree_.ss(rack);
          sstree_.setSs(rack, node);
          sim::traceRecord(
              trace_, now, sim::TraceCategory::kFailover, node, [&] {
                return "promoted to rack Strobe Sender of rack " +
                       std::to_string(rack) + " (was n" +
                       std::to_string(old_ss) + "), epoch " +
                       std::to_string(control_epoch_);
              });
        }
        const bool root_dead =
            cluster_.faults()->nodeDown(strobe_node_, now) ||
            (strobe_node_ < cluster_.numComputeNodes() &&
             nodeEvicted(strobe_node_));
        if (was_rack_ss || root_dead) {
          const int old_root = strobe_node_;
          strobe_node_ = node;
          sstree_.setSs(rack, node);  // the root heads its own rack
          sim::traceRecord(
              trace_, now, sim::TraceCategory::kFailover, node, [&] {
                return "elected backup root Strobe Sender (was n" +
                       std::to_string(old_root) + "), epoch " +
                       std::to_string(control_epoch_) +
                       "; recovering phase seq " + std::to_string(phase_seq_);
              });
          if (failover_handler_) failover_handler_(node, control_epoch_);
        }
        strobing_ = true;
        treeRecover();
      });
}

void Runtime::treeHandleEviction(int node) {
  const int rack = sstree_.rackOf(node);
  TreeRackState& rk = tree_racks_[static_cast<std::size_t>(rack)];
  // Whether the dead member was gating the current microphase must be read
  // BEFORE the membership edit (its NodeState is scrubbed later, at the
  // boundary, but the pending count is rack bookkeeping).
  const bool counted = rk.seq == phase_seq_ &&
                       ctl_->phase_seq[node] == rk.seq &&
                       ctl_->outstanding[node] > 0;
  const storm::SsTree::EvictResult ev = sstree_.evict(node);
  if (!ev.removed) return;
  if (counted && rk.pending > 0) --rk.pending;
  if (ev.rack_empty) {
    sim::traceRecord(
        trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
        node, [&] {
          return "rack " + std::to_string(rack) + " lost its last member";
        });
    // An empty rack no longer gates phase completion.
    maybeTreePhaseDone();
    return;
  }
  if (ev.ss_changed) {
    const int new_ss = sstree_.ss(rack);
    sim::traceRecord(
        trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
        new_ss, [&] {
          return "promoted to rack Strobe Sender of rack " +
                 std::to_string(rack) + " (n" + std::to_string(node) +
                 " evicted)";
        });
    // Re-strobe the rack under its successor so the in-flight microphase
    // can still finish (the fan-out is idempotent; the members keep their
    // tokens).
    if (strobing_ && !stop_requested_ && tree_phase_open_ &&
        rk.acked_seq < phase_seq_) {
      const Phase p = tree_phase_;
      const std::uint64_t seq = phase_seq_;
      const std::uint64_t epoch = control_epoch_;
      if (new_ss == strobe_node_) {
        cluster_.engine().at(cluster_.engine().now(),
                             [this, rack, p, seq, epoch] {
                               if (epoch != control_epoch_) return;
                               onRackStrobe(rack, p, seq);
                             });
      } else if (!cluster_.faults()->nodeDown(strobe_node_,
                                              cluster_.engine().now())) {
        ++root_msgs_slice_;
        core::XferRequest restrobe;
        restrobe.src_node = strobe_node_;
        restrobe.dest_nodes = {&new_ss, 1};
        restrobe.bytes = 16;
        restrobe.deliver = [this, rack, p, seq, epoch](int) {
          if (epoch != control_epoch_) return;
          onRackStrobe(rack, p, seq);
        };
        core_.xferAndSignal(std::move(restrobe));
      }
    }
    return;
  }
  if (counted && rk.pending == 0 && tree_phase_open_ &&
      rk.acked_seq < rk.seq) {
    // The dead node was the last member gating the rack: ack on its behalf.
    sendRackAck(rack, rk.seq);
  }
}

void Runtime::treeHandleRejoin(int node) {
  const int rack = sstree_.rackOf(node);
  const bool revived = sstree_.rejoin(node);
  if (revived) {
    // The rack was empty (it stopped gating phases when its last member
    // left); bring its bookkeeping up to date so it does not gate the
    // microphase already in flight.  The node's scrubbed NodeState has
    // phase_seq 0, so the next strobe initializes it normally.
    TreeRackState& rk = tree_racks_[static_cast<std::size_t>(rack)];
    rk.seq = phase_seq_;
    rk.acked_seq = phase_seq_;
    rk.pending = 0;
  }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

void Runtime::treeAudit(verify::Verifier& v, SimTime now) {
  // Rack walk in index order (deterministic report order).  A rack whose
  // coalesced ack never reached the root — or that still counts busy
  // members — is a leaked ack buffer; report it with rack provenance.
  for (int r = 0; r < sstree_.rackCount(); ++r) {
    const std::vector<int>& members = sstree_.members(r);
    if (members.empty()) continue;
    const TreeRackState& rk = tree_racks_[static_cast<std::size_t>(r)];
    if (rk.acked_seq >= phase_seq_ && rk.pending == 0) continue;
    std::string detail =
        "rack " + std::to_string(r) + " (SS n" +
        std::to_string(sstree_.ss(r)) + "): coalesced ack for microphase seq " +
        std::to_string(phase_seq_) + " never reached the root (acked " +
        std::to_string(rk.acked_seq) + ", " + std::to_string(rk.pending) +
        " member(s) pending";
    for (int m : members) {
      if (ctl_->outstanding[m] > 0) detail += " n" + std::to_string(m);
    }
    detail += ")";
    v.addFinding(verify::Category::kLeakedAck, now, slice_index_,
                 sstree_.ss(r), /*job=*/-1, /*rank=*/-1, detail);
  }
}

}  // namespace bcs::bcsmpi
