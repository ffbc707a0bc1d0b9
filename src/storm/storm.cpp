#include "storm/storm.hpp"

#include <algorithm>
#include <string>

namespace bcs::storm {

Storm::Storm(net::Cluster& cluster, StormConfig config)
    : cluster_(cluster),
      config_(config),
      core_(cluster.fabric(), &cluster.trace()),
      node_info_(static_cast<std::size_t>(cluster.numComputeNodes())) {
  launch_var_ = core_.allocVar("storm_launch", 0);
  hb_var_ = core_.allocVar("storm_heartbeat", 0);
  mm_node_ = cluster.managementNode();
}

// ---------------------------------------------------------------------------
// Resource accounting
// ---------------------------------------------------------------------------

std::vector<int> Storm::allocate(int nprocs, int per_node,
                                 Placement placement) {
  std::vector<int> node_of_rank;
  node_of_rank.reserve(static_cast<std::size_t>(nprocs));
  if (placement == Placement::kPack) {
    for (int n = 0; n < cluster_.numComputeNodes() &&
                    static_cast<int>(node_of_rank.size()) < nprocs;
         ++n) {
      NodeInfo& info = node_info_[static_cast<std::size_t>(n)];
      if (info.marked_dead) continue;
      while (info.used_slots < per_node &&
             static_cast<int>(node_of_rank.size()) < nprocs) {
        ++info.used_slots;
        node_of_rank.push_back(n);
      }
    }
  } else {
    // Round-robin passes: one slot per node per pass.
    for (int pass = 0; pass < per_node &&
                       static_cast<int>(node_of_rank.size()) < nprocs;
         ++pass) {
      for (int n = 0; n < cluster_.numComputeNodes() &&
                      static_cast<int>(node_of_rank.size()) < nprocs;
           ++n) {
        NodeInfo& info = node_info_[static_cast<std::size_t>(n)];
        if (info.marked_dead || info.used_slots >= per_node) continue;
        if (info.used_slots > pass) continue;  // already filled this pass
        ++info.used_slots;
        node_of_rank.push_back(n);
      }
    }
  }
  if (static_cast<int>(node_of_rank.size()) < nprocs) {
    // Roll back the partial allocation before failing.
    release(node_of_rank);
    throw sim::SimError("Storm::allocate: not enough free slots for " +
                        std::to_string(nprocs) + " processes");
  }
  return node_of_rank;
}

void Storm::release(const std::vector<int>& node_of_rank) {
  for (int n : node_of_rank) {
    NodeInfo& info = node_info_.at(static_cast<std::size_t>(n));
    if (info.used_slots > 0) --info.used_slots;
  }
}

int Storm::usedSlots(int node) const {
  return node_info_.at(static_cast<std::size_t>(node)).used_slots;
}

// ---------------------------------------------------------------------------
// Job launch
// ---------------------------------------------------------------------------

void Storm::launchImage(const std::vector<int>& nodes,
                        std::size_t binary_bytes, int procs_per_node,
                        std::function<void(SimTime)> on_launched) {
  const int mgmt = mm_node_;
  const std::int64_t seq = ++launch_seq_;
  const SimTime t0 = cluster_.engine().now();

  sim::traceRecord(&cluster_.trace(), t0, sim::TraceCategory::kStorm, mgmt,
                   [&] {
                     return "launch: " + std::to_string(binary_bytes) +
                            "B image to " + std::to_string(nodes.size()) +
                            " node(s)";
                   });

  // MM prepares the command, then one hardware multicast carries the whole
  // image; each NM forks its processes and acknowledges via the global
  // launch variable.
  cluster_.engine().after(config_.mm_dispatch_overhead, [this, nodes,
                                                         binary_bytes,
                                                         procs_per_node, seq,
                                                         t0, mgmt,
                                                         on_launched] {
    core::XferRequest xfer;
    xfer.src_node = mgmt;
    xfer.dest_nodes = nodes;
    xfer.bytes = binary_bytes;
    xfer.deliver = [this, seq, procs_per_node](int node) {
      const Duration spawn =
          config_.nm_spawn_overhead * std::max(procs_per_node, 1);
      cluster_.engine().after(spawn, [this, node, seq] {
        core_.writeVarLocal(node, launch_var_, seq);
      });
    };
    core_.xferAndSignal(std::move(xfer));

    // MM polls global readiness with Compare-And-Write.
    pollLaunch(std::make_shared<const LaunchPoll>(
        LaunchPoll{nodes, seq, t0, mgmt, on_launched}));
  });
}

void Storm::pollLaunch(std::shared_ptr<const LaunchPoll> launch) {
  core::CompareAndWriteRequest req;
  req.src_node = launch->mgmt;
  req.nodes = launch->nodes;
  req.var = launch_var_;
  req.op = core::CmpOp::kGE;
  req.value = launch->seq;
  core_.compareAndWriteAsync(req, [this, launch](bool ready) {
    if (ready) {
      if (launch->on_launched) {
        launch->on_launched(cluster_.engine().now() - launch->t0);
      }
    } else {
      cluster_.engine().after(config_.launch_poll_interval,
                              [this, launch] { pollLaunch(launch); });
    }
  });
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

void Storm::startHeartbeats() {
  if (heartbeats_on_) return;
  heartbeats_on_ = true;
  heartbeatRound();
}

void Storm::stopHeartbeats() { heartbeats_on_ = false; }

void Storm::heartbeatRound() {
  if (!heartbeats_on_) return;
  const int mm = mm_node_;
  const SimTime round_start = cluster_.engine().now();
  if (cluster_.faults()->nodeDown(mm, round_start)) {
    // The MM host is down: it sends and inspects nothing this round.  The
    // cadence timer stays armed so a failed-over MM picks the chain back up
    // on the next period.
    scheduleRound(round_start + config_.heartbeat_period);
    return;
  }
  const std::int64_t seq = ++hb_seq_;
  ++hb_sent_;

  std::vector<int> nodes;
  for (int n = 0; n < cluster_.numComputeNodes(); ++n) nodes.push_back(n);

  core::XferRequest beat;
  beat.src_node = mm;
  beat.dest_nodes = nodes;
  beat.bytes = 16;
  // The NM acknowledges on delivery; whether a node receives at all is the
  // fabric's call (down nodes have their multicast legs suppressed), so the
  // injector is the only liveness authority.
  beat.deliver = [this, seq](int node) {
    core_.writeVarLocal(node, hb_var_, seq);
  };
  core_.xferAndSignal(std::move(beat));
  if (mm < cluster_.numComputeNodes()) {
    // A failed-over MM is itself a compute node; the fabric excludes the
    // multicast source, so its NM acknowledges through NIC-local memory.
    core_.writeVarLocal(mm, hb_var_, seq);
  }

  // Half a period later, the MM inspects each node's acknowledgement.
  inspect_seq_ = seq;
  inspect_at_ = round_start + config_.heartbeat_period / 2;
  inspect_pending_ = true;
  cluster_.engine().at(inspect_at_, [this, seq] { inspectRound(seq); });
  scheduleRound(round_start + config_.heartbeat_period);
}

void Storm::inspectRound(std::int64_t seq) {
  inspect_pending_ = false;
  if (cluster_.faults()->nodeDown(mm_node_, cluster_.engine().now())) {
    return;  // the MM died between strobe and inspection
  }
  for (int n = 0; n < cluster_.numComputeNodes(); ++n) {
    NodeInfo& info = node_info_[static_cast<std::size_t>(n)];
    if (core_.readVar(n, hb_var_) >= seq) {
      if (info.marked_dead) {
        // A node declared dead is acknowledging again: a hang window
        // ended.  Clear the MM's books and announce the rejoin.
        info.marked_dead = false;
        info.missed = 0;
        sim::traceRecord(&cluster_.trace(), cluster_.engine().now(),
                         sim::TraceCategory::kFailover, n, [] {
                           return "rejoined: heartbeat acknowledged after "
                                  "death declaration";
                         });
        if (rejoin_handler_) rejoin_handler_(n);
      } else {
        info.missed = 0;
      }
    } else if (!info.marked_dead) {
      if (++info.missed >= config_.max_missed_heartbeats) {
        info.marked_dead = true;
        sim::traceRecord(&cluster_.trace(), cluster_.engine().now(),
                         sim::TraceCategory::kStorm, n, [&] {
                           return "declared dead after " +
                                  std::to_string(info.missed) +
                                  " missed heartbeats";
                         });
        if (death_handler_) death_handler_(n);
      }
    }
  }
}

void Storm::scheduleRound(SimTime at) {
  next_round_at_ = at;
  cluster_.engine().at(at, [this] { heartbeatRound(); });
}

bool Storm::nodeAlive(int node) const {
  return !node_info_.at(static_cast<std::size_t>(node)).marked_dead;
}

void Storm::killNode(int node) {
  (void)node_info_.at(static_cast<std::size_t>(node));  // range check
  cluster_.faults()->forceDown(node, cluster_.engine().now());
}

void Storm::failoverTo(int node) {
  if (node == mm_node_) return;
  const int old_mm = mm_node_;
  mm_node_ = node;
  sim::traceRecord(&cluster_.trace(), cluster_.engine().now(),
                   sim::TraceCategory::kFailover, node, [&] {
                     return "Machine Manager failed over (was n" +
                            std::to_string(old_mm) + ")";
                   });
}

std::vector<int> Storm::deadNodes() const {
  std::vector<int> dead;
  for (int n = 0; n < cluster_.numComputeNodes(); ++n) {
    if (node_info_[static_cast<std::size_t>(n)].marked_dead) dead.push_back(n);
  }
  return dead;
}

}  // namespace bcs::storm
