// BBM / RM microphase implementations: the Collective Helper and the Reduce
// Helper NIC threads (paper §4.4, Figure 7).
//
// Broadcast and barrier ride the hardware multicast (barrier is "a special
// case of a broadcast operation with no data").  Reduce climbs a binomial
// tree of nodes; partial results are combined *on the NIC* with the
// softfloat library because the Elan3 has no FPU, then — for allreduce —
// the result is multicast back.

#include <algorithm>
#include <cstring>
#include <string>

#include "bcsmpi/runtime.hpp"
#include "mpi/reduce_ops.hpp"

namespace bcs::bcsmpi {

int Runtime::collectiveOwnerNode(const JobState& js,
                                 const PendingCollective& pc) const {
  // Broadcast/reduce execute at the root rank's node (that is where the
  // payload lives / must end up); barrier and allreduce are rooted at the
  // job master.
  if (pc.type == CollectiveType::kBcast || pc.type == CollectiveType::kReduce) {
    return js.node_of_rank.at(static_cast<std::size_t>(pc.root));
  }
  return js.node_of_rank.at(0);
}

Runtime::Payload Runtime::copyPayload(const std::byte* data,
                                      std::size_t bytes) {
  Payload p = payloads_.acquire();
  p->assign(data, data + bytes);
  return p;
}

// ---------------------------------------------------------------------------
// BBM — Broadcast and Barrier Microphase (Collective Helper)
// ---------------------------------------------------------------------------

int Runtime::collectReadyCollectives(int node, bool reduce_phase,
                                     std::vector<int>& ready_jobs) {
  NodeState& ns = nodeState(node);
  int ops = 0;
  for (auto& [job, pc] : ns.pending_coll) {
    if (!pc.active || pc.executing) continue;
    const bool is_reduce = pc.type == CollectiveType::kReduce ||
                           pc.type == CollectiveType::kAllreduce;
    if (is_reduce != reduce_phase) continue;
    // Scheduled iff the MSM's Compare-And-Write published the generation to
    // every node of the job.
    if (core_.readVar(node, jobState(job).coll_sched) < pc.gen) continue;
    pc.executing = true;
    ready_jobs.push_back(job);
    ++ops;
  }
  return ops;
}

void Runtime::executeBroadcast(int node, int job) {
  JobState& js = jobState(job);
  PendingCollective& pc = nodeState(node).pending_coll[job];
  const int owner = collectiveOwnerNode(js, pc);
  if (node != owner) {
    // Passive participant: the payload (or the barrier release) arrives as
    // part of the owner's multicast; the owner's completion token keeps the
    // microphase open until then.
    return;
  }

  opStarted(node);
  std::size_t payload_bytes =
      pc.type == CollectiveType::kBcast
          ? pc.count * mpi::datatypeSize(pc.dt)
          : 0;
  // CH reads the root rank's buffer once.
  Payload payload;
  if (payload_bytes > 0) {
    const std::byte* src = nullptr;
    for (const CollectiveDescriptor& d : pc.local) {
      if (d.rank == pc.root) {
        src = d.contrib;
        // A count-divergent job (diagnosable with BcsMpiConfig::verify) may
        // give the root a smaller buffer than pc.count suggests; never read
        // past what the root actually posted.
        payload_bytes =
            std::min(payload_bytes, d.count * mpi::datatypeSize(pc.dt));
      }
    }
    if (src == nullptr) {
      throw sim::SimError("bcast: root rank descriptor missing on owner");
    }
    payload = copyPayload(src, payload_bytes);
  }

  std::vector<int> dests;
  for (int n : js.nodes) {
    if (n != owner) dests.push_back(n);
  }
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kCollective,
      node, [&] {
        return std::string("CH ") + collectiveTypeName(pc.type) + " gen " +
               std::to_string(pc.gen) + " to " + std::to_string(dests.size()) +
               " node(s)";
      });
  if (dests.empty()) {
    // Single-node job: complete locally right away.
    finishCollectiveOnNode(owner, job, payload);
    opFinished(node);
    return;
  }
  core::XferRequest xfer;
  xfer.src_node = owner;
  xfer.dest_nodes = dests;
  xfer.bytes = payload_bytes + 16;
  xfer.deliver = [this, job, payload](int dest) {
    finishCollectiveOnNode(dest, job, payload);
  };
  // The owner's local ranks complete once the multicast has been delivered
  // everywhere, observed through the local completion event (Test-Event on
  // the Xfer-And-Signal, per the BCS core semantics).
  xfer.local_event = coll_done_event_;
  core_.xferAndSignal(std::move(xfer));
  core_.waitEventAsync(owner, coll_done_event_, [this, owner, job, payload] {
    finishCollectiveOnNode(owner, job, payload);
    opFinished(owner);
  });
}

// ---------------------------------------------------------------------------
// RM — Reduce Microphase (Reduce Helper)
// ---------------------------------------------------------------------------

void Runtime::executeReduce(int node, int job) {
  JobState& js = jobState(job);
  PendingCollective& pc = nodeState(node).pending_coll[job];
  const int owner = collectiveOwnerNode(js, pc);

  // Binomial-tree position among the job's nodes, rotated so the owner is
  // the root.
  const int nn = static_cast<int>(js.nodes.size());
  const auto idx_of = [&](int n) {
    return static_cast<int>(std::find(js.nodes.begin(), js.nodes.end(), n) -
                            js.nodes.begin());
  };
  const int rel = (idx_of(node) - idx_of(owner) + nn) % nn;
  pc.children_left = 0;
  pc.parent_node = -1;
  for (int mask = 1; mask < nn; mask <<= 1) {
    if ((rel & mask) != 0) {
      const int parent_rel = rel & ~mask;
      pc.parent_node = js.nodes[static_cast<std::size_t>(
          (parent_rel + idx_of(owner)) % nn)];
      break;
    }
    if ((rel | mask) < nn) ++pc.children_left;
  }
  pc.local_ready = false;

  // RH combines the local ranks' contributions first (softfloat, per
  // element).  Counts are clamped per descriptor: a count-divergent job
  // (diagnosable with BcsMpiConfig::verify) must stay a protocol error, not
  // a read past a rank's contribution buffer.
  const std::size_t bytes =
      std::min(pc.count, pc.local.front().count) * mpi::datatypeSize(pc.dt);
  pc.partial.assign(pc.local.front().contrib,
                    pc.local.front().contrib + bytes);
  pc.partial.resize(pc.count * mpi::datatypeSize(pc.dt));
  for (std::size_t i = 1; i < pc.local.size(); ++i) {
    mpi::applyReduce(pc.op, pc.dt, pc.partial.data(), pc.local[i].contrib,
                     std::min(pc.count, pc.local[i].count),
                     mpi::ReduceFlavor::kNicSoftFloat);
  }
  opStarted(node);
  const Duration combine_cost =
      static_cast<Duration>(pc.local.size() - 1) *
      static_cast<Duration>(pc.count) * config_.nic_reduce_per_element;
  cluster_.engine().after(std::max<Duration>(combine_cost, 1), [this, node,
                                                                job] {
    PendingCollective& p = nodeState(node).pending_coll[job];
    p.local_ready = true;
    // Apply any child partials that arrived while we were combining.
    std::vector<Payload> queued;
    queued.swap(p.queued_partials);
    for (Payload& q : queued) reduceApply(node, job, std::move(q));
    reduceAdvance(node, job);
  });
}

void Runtime::reduceIncoming(int node, int job, Payload data) {
  PendingCollective& pc = nodeState(node).pending_coll[job];
  if (!pc.local_ready) {
    pc.queued_partials.push_back(std::move(data));
    return;
  }
  reduceApply(node, job, std::move(data));
  reduceAdvance(node, job);
}

void Runtime::reduceApply(int node, int job, Payload data) {
  PendingCollective& pc = nodeState(node).pending_coll[job];
  // A child of a count-divergent job can send a partial smaller than this
  // node's count; clamp so the disagreement stays a diagnosable protocol
  // error (BcsMpiConfig::verify) instead of an out-of-bounds read.
  const std::size_t have = data->size() / mpi::datatypeSize(pc.dt);
  mpi::applyReduce(pc.op, pc.dt, pc.partial.data(), data->data(),
                   std::min(pc.count, have), mpi::ReduceFlavor::kNicSoftFloat);
  --pc.children_left;
}

void Runtime::reduceAdvance(int node, int job) {
  PendingCollective& pc = nodeState(node).pending_coll[job];
  if (!pc.local_ready || pc.children_left > 0) return;
  // All inputs combined.  Charge the softfloat time for the incoming
  // partials (already applied logically) before forwarding.
  JobState& js = jobState(job);
  const int owner = collectiveOwnerNode(js, pc);
  if (node == owner) {
    reduceDeliverResult(node, job);
  } else {
    reduceSendUp(node, job);
  }
}

void Runtime::reduceSendUp(int node, int job) {
  PendingCollective& pc = nodeState(node).pending_coll[job];
  Payload snapshot = copyPayload(pc.partial.data(), pc.partial.size());
  const int parent = pc.parent_node;
  const Duration cost =
      static_cast<Duration>(pc.count) * config_.nic_reduce_per_element;
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kCollective,
      node, [&] { return "RH partial -> n" + std::to_string(parent); });
  cluster_.engine().after(cost, [this, node, job, parent, snapshot] {
    core::XferRequest xfer;
    xfer.src_node = node;
    xfer.dest_nodes = {&parent, 1};
    xfer.bytes = snapshot->size() + 16;
    xfer.deliver = [this, parent, job, snapshot](int) {
      reduceIncoming(parent, job, snapshot);
    };
    core_.xferAndSignal(std::move(xfer));
    // This node's RH role ends once the partial is on the wire; the phase
    // stays open globally through the owner's token.
    opFinished(node);
  });
}

void Runtime::reduceDeliverResult(int node, int job) {
  JobState& js = jobState(job);
  PendingCollective& pc = nodeState(node).pending_coll[job];
  Payload result = copyPayload(pc.partial.data(), pc.partial.size());

  std::vector<int> dests;
  for (int n : js.nodes) {
    if (n != node) dests.push_back(n);
  }
  const bool carry_payload = pc.type == CollectiveType::kAllreduce;
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kCollective,
      node, [&] {
        return std::string("RH result ready (") + collectiveTypeName(pc.type) +
               " gen " + std::to_string(pc.gen) + ")";
      });
  if (dests.empty()) {
    finishCollectiveOnNode(node, job, result);
    opFinished(node);
    return;
  }
  core::XferRequest xfer;
  xfer.src_node = node;
  xfer.dest_nodes = dests;
  xfer.bytes = (carry_payload ? result->size() : 0) + 16;
  xfer.deliver = [this, job, result](int dest) {
    finishCollectiveOnNode(dest, job, result);
  };
  xfer.local_event = coll_done_event_;
  core_.xferAndSignal(std::move(xfer));
  core_.waitEventAsync(node, coll_done_event_, [this, node, job, result] {
    finishCollectiveOnNode(node, job, result);
    opFinished(node);
  });
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void Runtime::finishCollectiveOnNode(int node, int job, Payload payload) {
  PendingCollective& pc = nodeState(node).pending_coll[job];
  if (!pc.active) return;
  const std::size_t bytes =
      payload ? std::min(pc.count * mpi::datatypeSize(pc.dt), payload->size())
              : 0;
  for (const CollectiveDescriptor& d : pc.local) {
    // The copy is clamped to the rank's own posted count: a count-divergent
    // job (diagnosable with BcsMpiConfig::verify) must never write past a
    // rank's result buffer.
    const std::size_t want =
        std::min(bytes, d.count * mpi::datatypeSize(pc.dt));
    switch (pc.type) {
      case CollectiveType::kBarrier:
        break;
      case CollectiveType::kBcast:
        if (d.rank != pc.root && payload) {
          std::memcpy(d.result, payload->data(), want);
        }
        break;
      case CollectiveType::kReduce:
        if (d.rank == pc.root && payload) {
          std::memcpy(d.result, payload->data(), want);
        }
        break;
      case CollectiveType::kAllreduce:
        if (payload) std::memcpy(d.result, payload->data(), want);
        break;
    }
    completeRequest(job, d.rank, d.request, pc.root, /*tag=*/-3, want);
  }
  pc.active = false;
  pc.executing = false;
  pc.flagged = false;
  pc.local.clear();
  pc.queued_partials.clear();
}

}  // namespace bcs::bcsmpi
