// The Strobe Receiver's work in every microphase (runPhase), for both
// control planes, and the DEM / MSM / P2P NIC threads it activates: the
// Buffer Sender, Buffer Receiver and DMA Helper, plus the Node Manager's
// slice-boundary process wakeups (paper §4.2-§4.3, Figure 6).  The BBM and
// RM helpers are in collectives.cpp.

#include <algorithm>
#include <cstring>
#include <string>

#include "bcsmpi/runtime.hpp"

namespace bcs::bcsmpi {

void Runtime::wakeAtSliceStart(int node) {
  NodeState& ns = nodeState(node);
  // Blocked processes whose operations completed during the previous slice
  // are restarted at the beginning of this one (Figure 2, step 5).
  for (const auto& [job, rank] : ns.wake_list) {
    RankState& rs = rankState(job, rank);
    if (rs.proc) rs.proc->wake();
  }
  ns.wake_list.clear();
  for (const auto& [job, rank] : ns.probe_waiters) {
    RankState& rs = rankState(job, rank);
    if (rs.proc) rs.proc->wake();
  }
  ns.probe_waiters.clear();

  // Gang scheduling (NM duty): one job owns the CPUs per slice, round-robin
  // over unfinished jobs (§5.4, option 1).
  if (config_.gang_scheduling && jobs_.size() > 1) {
    std::vector<int> runnable;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (jobs_[j].finished < static_cast<int>(jobs_[j].ranks.size())) {
        runnable.push_back(static_cast<int>(j));
      }
    }
    if (!runnable.empty()) {
      int scheduled =
          runnable[static_cast<std::size_t>(slice_index_ % runnable.size())];
      // Backfill (§5.4): if the slice's job has nothing runnable on this
      // node — every local process is blocked on communication — hand the
      // CPUs to a job that can use them instead of idling the slice.
      auto locally_runnable = [&](int j) {
        for (RankState& rs : jobs_[static_cast<std::size_t>(j)].ranks) {
          if (rs.node == node && rs.proc != nullptr && !rs.finished &&
              (rs.proc->computing() || !rs.proc->blocked())) {
            return true;
          }
        }
        return false;
      };
      if (!locally_runnable(scheduled)) {
        for (std::size_t k = 0; k < runnable.size(); ++k) {
          const int candidate = runnable[static_cast<std::size_t>(
              (slice_index_ + 1 + k) % runnable.size())];
          if (locally_runnable(candidate)) {
            scheduled = candidate;
            break;
          }
        }
      }
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        for (RankState& rs : jobs_[j].ranks) {
          if (rs.node != node || rs.proc == nullptr || rs.finished) continue;
          rs.proc->setComputeFrozen(static_cast<int>(j) != scheduled);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One microphase on one node: the NIC threads a microstrobe activates
// ---------------------------------------------------------------------------

Duration Runtime::runPhase(int node, Phase p, std::uint64_t seq) {
  switch (p) {
    case Phase::kDem: {
      beginNodePhase(node, seq, config_.dem_floor);
      wakeAtSliceStart(node);
      // The BS/BR read their descriptor FIFOs a small window after the
      // strobe, so a process the NM restarted at this very boundary can
      // still slip its next descriptor into the current slice (FIFO-read
      // semantics of the real NIC threads).  Flat mode files one drain per
      // node; a tree rack's shared drain event releases the marked token.
      opStarted(node);
      if (tree_mode_) {
        ctl_->tree_drain[node] = true;
      } else {
        dem_drains_.afterRange(config_.dem_drain_window, node);
      }
      return config_.dem_floor;
    }
    case Phase::kMsm: {
      Duration match_cost = 0;
      matchDescriptors(node, match_cost);
      scheduleChunks(node);
      // Passive-target epoch apply: RMA ops that arrived in this slice's
      // DEM hit their windows here, in canonical order (rma.cpp).
      scheduleRmaOps(node, match_cost);
      const Duration busy = std::max(config_.msm_floor, match_cost);
      beginNodePhase(node, seq, busy);
      scheduleCollectiveQueries(node);
      return busy;
    }
    case Phase::kP2p: {
      const NodeState& ns = nodeState(node);
      const Duration busy =
          static_cast<Duration>(ns.slice_gets.size() + ns.rma_returns.size()) *
          config_.nic_desc_processing;
      beginNodePhase(node, seq, busy);
      issueGets(node);
      // RMA completion returns share the transmission phase with the DH
      // gets.
      runRmaReturns(node);
      return busy;
    }
    case Phase::kBbm:
    case Phase::kRm: {
      // BBM and RM: the Collective Helper and the Reduce Helper pick up the
      // collectives scheduled for their microphase (collectives.cpp).
      const bool reduce_phase = p == Phase::kRm;
      std::vector<int> ready_jobs;
      const int ops = collectReadyCollectives(node, reduce_phase, ready_jobs);
      const Duration busy =
          static_cast<Duration>(ops) * config_.nic_desc_processing;
      beginNodePhase(node, seq, busy);
      for (int job : ready_jobs) {
        if (reduce_phase) {
          executeReduce(node, job);
        } else {
          executeBroadcast(node, job);
        }
      }
      return busy;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// DEM — Descriptor Exchange Microphase
// ---------------------------------------------------------------------------

void Runtime::drainDescriptorFifos(int node) {
  NodeState& ns = nodeState(node);
  // Retransmissions first: they are older than anything still in the fresh
  // FIFO, so draining them first preserves posting order as far as possible.
  // The batch is copied into the runtime's scratch vector, whose capacity
  // survives from one drain to the next.
  std::vector<SendDescriptor>& to_exchange = exchange_scratch_;
  to_exchange.assign(ns.bs_retry.begin(), ns.bs_retry.end());
  to_exchange.insert(to_exchange.end(), ns.bs_fresh.begin(),
                     ns.bs_fresh.end());
  ns.bs_retry.clear();
  ns.bs_fresh.clear();
  for (const RecvDescriptor& r : ns.recv_fresh) {
    if (r.want_src != mpi::kAnySource &&
        nodeEvicted(nodeOfRank(r.job, r.want_src))) {
      // Posted after the wanted source's node was evicted: can never match.
      failRequest(r.job, r.dst_rank, r.request, r.want_src, r.want_tag);
      continue;
    }
    ns.recv_eligible.insert(r);
  }
  ns.recv_fresh.clear();
  const int coll_processed = preprocessCollectivesCount(node);
  // One-sided ops drained from the same FIFOs, coalesced per destination
  // (rma.cpp); a no-op with no RMA in flight.
  drainRmaFifos(node);

  // NIC-thread processing time for the drained batch.
  const Duration work =
      static_cast<Duration>(to_exchange.size() + coll_processed) *
      config_.nic_desc_processing;
  if (work > 0) {
    opStarted(node);
    op_timers_.afterRange(work, node);
  }

  // BS: deliver each send descriptor to the destination node's BR.  The
  // phase completes when every descriptor has landed or its loss has been
  // detected (tracked through the per-op tokens; the transfer itself is one
  // Xfer-And-Signal).  A dropped descriptor is retransmitted in the next
  // slice's DEM — never lost silently.
  for (const SendDescriptor& d : to_exchange) {
    const int dst_node = nodeOfRank(d.job, d.dst_rank);
    if (nodeEvicted(dst_node)) {
      failRequest(d.job, d.src_rank, d.request, d.dst_rank, d.tag);
      continue;
    }
    opStarted(node);
    ++stats_.descriptors_exchanged;
    sim::Slots<DescriptorInFlight>::Ref flight =
        descriptors_in_flight_.acquire();
    *flight = DescriptorInFlight{d, node, dst_node};
    core::XferRequest xfer;
    xfer.src_node = node;
    xfer.dest_nodes = {&dst_node, 1};
    xfer.bytes = config_.descriptor_bytes;
    xfer.droppable = true;
    xfer.deliver = [this, flight](int) {
      const auto& [d, node, dst_node] = *flight;
      nodeState(dst_node).remote_sends.insert(d);
      sim::traceRecord(
          trace_, cluster_.engine().now(), sim::TraceCategory::kDescriptor,
          dst_node, [&] {
            return "send desc from rank " + std::to_string(d.src_rank) +
                   " tag " + std::to_string(d.tag) + " (" +
                   std::to_string(d.bytes) + "B)";
          });
      opFinished(node);
    };
    xfer.on_failed = [this, flight = std::move(flight)](int) {
      const auto& [d, node, dst_node] = *flight;
      if (nodeEvicted(node)) {  // we died while the descriptor was in flight
        opFinished(node);
        return;
      }
      if (nodeEvicted(dst_node) || d.retries >= config_.max_descriptor_retries) {
        failRequest(d.job, d.src_rank, d.request, d.dst_rank, d.tag);
      } else {
        SendDescriptor retry = d;
        ++retry.retries;
        ++stats_.retransmits;
        sim::traceRecord(
            trace_, cluster_.engine().now(), sim::TraceCategory::kFault,
            node, [&] {
              return "desc to rank " + std::to_string(d.dst_rank) + " tag " +
                     std::to_string(d.tag) + " lost; retransmit #" +
                     std::to_string(retry.retries) + " next slice";
            });
        nodeState(node).bs_retry.push_back(std::move(retry));
      }
      opFinished(node);
    };
    core_.xferAndSignal(std::move(xfer));
  }
}

int Runtime::preprocessCollectivesCount(int node) {
  // BR pre-processing (§4.4): group collective descriptors by job; once all
  // local ranks of a job posted the same generation, publish the node's
  // per-job flag (a local write to a global variable) and keep only the
  // bookkeeping needed to finish the operation locally.
  NodeState& ns = nodeState(node);
  int processed = 0;
  for (const CollectiveDescriptor& d : ns.coll_fresh) {
    ++processed;

    if (jobState(d.job).degraded) {
      // A collective over a job that lost ranks can never be globally
      // scheduled (the dead node's flag variable will not advance).
      failRequest(d.job, d.rank, d.request, mpi::kAnySource, mpi::kAnyTag);
      continue;
    }
    PendingCollective& pc = ns.pending_coll[d.job];
    if (!pc.active) {
      pc.active = true;
      pc.type = d.type;
      pc.gen = d.gen;
      pc.root = d.root;
      pc.count = d.count;
      pc.dt = d.dt;
      pc.op = d.op;
      pc.flagged = false;
      pc.caw_inflight = false;
      pc.executing = false;
      pc.children_left = 0;
      pc.local.clear();
    }
    if (pc.gen != d.gen || pc.type != d.type) {
      throw sim::SimError(
          "collective mismatch: ranks of job " + std::to_string(d.job) +
          " disagree on operation (gen " + std::to_string(pc.gen) + " vs " +
          std::to_string(d.gen) + ")");
    }
    pc.local.push_back(d);

    // Count the job's ranks living on this node.
    const JobState& js = jobState(d.job);
    int local_ranks = 0;
    for (int n : js.node_of_rank) {
      if (n == node) ++local_ranks;
    }
    if (static_cast<int>(pc.local.size()) == local_ranks) {
      pc.flagged = true;
      core_.writeVarLocal(node, js.coll_flag, pc.gen);
      sim::traceRecord(
          trace_, cluster_.engine().now(), sim::TraceCategory::kCollective,
          node, [&] {
            return std::string("flag set: ") + collectiveTypeName(pc.type) +
                   " gen " + std::to_string(pc.gen);
          });
    }
  }
  ns.coll_fresh.clear();
  return processed;
}

// ---------------------------------------------------------------------------
// MSM — Message Scheduling Microphase
// ---------------------------------------------------------------------------

void Runtime::matchDescriptors(int node, Duration& cost) {
  NodeState& ns = nodeState(node);
  if (ns.recv_eligible.empty() || ns.remote_sends.empty()) return;
  // For each posted receive (in post order) find the matching remote send
  // descriptor with the lowest posting sequence — matching by seq rather
  // than arrival order preserves MPI's non-overtaking guarantee per
  // (source, tag) even when a retransmitted descriptor arrives a slice
  // later than a younger one.
  //
  // Only receives that can possibly match need visiting: the concrete
  // receives whose envelope has at least one arrived send (one bucket
  // lookup per distinct send envelope) plus every wildcard receive.  The
  // candidate list is sorted by posting seq, which for receives equals
  // their old insertion order, so the pass visits the same receives the
  // full quadratic scan would have matched, in the same order.
  std::vector<std::uint64_t>& cand = ns.match_scratch;
  cand.clear();
  ns.remote_sends.forEachEnvelope([&](const EnvelopeKey& key) {
    if (const auto* bucket = ns.recv_eligible.bucketFor(key)) {
      cand.insert(cand.end(), bucket->begin(), bucket->end());
    }
  });
  const auto& wilds = ns.recv_eligible.wildcards();
  cand.insert(cand.end(), wilds.begin(), wilds.end());
  std::sort(cand.begin(), cand.end());

  for (const std::uint64_t recv_seq : cand) {
    const RecvDescriptor* r = ns.recv_eligible.find(recv_seq);
    if (r == nullptr) continue;  // consumed earlier this pass
    const SendDescriptor* s = ns.remote_sends.lowestSeqMatch(*r);
    if (s == nullptr) continue;  // its send went to an earlier receive
    if (verifier_) {
      // Record the finding *before* the truncation throw below so the
      // report survives the unwound run; the throw itself is unchanged
      // (verify-off behavior is preserved exactly).
      const std::size_t eligible =
          r->want_src == mpi::kAnySource
              ? ns.remote_sends.countEligibleSources(*r)
              : 1;
      verifier_->onMatch(slice_index_, cluster_.engine().now(), node, *s, *r,
                         eligible);
    }
    if (s->bytes > r->bytes) {
      throw sim::SimError("recv truncation: rank " +
                          std::to_string(r->dst_rank) + " posted " +
                          std::to_string(r->bytes) + "B for a " +
                          std::to_string(s->bytes) + "B message");
    }
    cost += config_.nic_match_cost;
    ++stats_.matches;
    MatchDescriptor m;
    m.send = ns.remote_sends.take(s->seq);
    m.recv = ns.recv_eligible.take(recv_seq);
    ns.match_queue.push_back(std::move(m));
  }
}

void Runtime::scheduleChunks(int node) {
  NodeState& ns = nodeState(node);
  std::vector<MatchDescriptor>& queue = ns.match_queue;
  std::size_t budget = config_.slice_byte_budget;
  // One chunk per message per slice (§4.3): the first chunk this slice,
  // the remainder in the following slices.  Transfers already in progress
  // sit at the queue front and therefore keep their priority.  Messages
  // whose last chunk is scheduled leave the queue; the rest close up
  // behind them in order.
  std::size_t kept = 0;
  std::size_t next = 0;
  for (; next < queue.size() && budget > 0; ++next) {
    MatchDescriptor& m = queue[next];
    const std::size_t remaining = m.send.bytes - m.offset;
    const std::size_t sched =
        std::min({remaining, config_.chunk_bytes, budget});
    if (sched == 0 && remaining > 0) break;  // budget exhausted

    GetOp op;
    op.src_node = nodeOfRank(m.send.job, m.send.src_rank);
    op.src = m.send.data + m.offset;
    op.dst = m.recv.data + m.offset;
    op.bytes = sched;
    op.final_chunk = (m.offset + sched == m.send.bytes);
    op.job = m.send.job;
    op.src_rank = m.send.src_rank;
    op.dst_rank = m.recv.dst_rank;
    op.tag = m.send.tag;
    op.message_bytes = m.send.bytes;
    op.send_req = m.send.request;
    op.recv_req = m.recv.request;
    ns.slice_gets.push_back(op);

    budget -= sched;
    m.offset += sched;
    // One chunk per slice: move on to the next message either way.
    if (m.offset != m.send.bytes) queue[kept++] = m;
  }
  queue.erase(queue.begin() + static_cast<long>(kept),
              queue.begin() + static_cast<long>(next));
}

void Runtime::scheduleCollectiveQueries(int node) {
  NodeState& ns = nodeState(node);
  for (auto& [job, pc] : ns.pending_coll) {
    if (!pc.active || !pc.flagged || pc.caw_inflight || pc.executing) continue;
    JobState& js = jobState(job);
    // Only the job master's node runs the scheduling query (§4.4: all other
    // collective descriptors were discarded at pre-processing).
    if (node != js.node_of_rank[0]) continue;
    if (core_.readVar(node, js.coll_sched) >= pc.gen) continue;  // scheduled
    pc.caw_inflight = true;
    opStarted(node);
    core::CompareAndWriteRequest req;
    req.src_node = node;
    req.nodes = js.nodes;
    req.var = js.coll_flag;
    req.op = core::CmpOp::kGE;
    req.value = pc.gen;
    req.do_write = true;
    req.write_var = js.coll_sched;
    req.write_value = pc.gen;
    const int job_id = job;
    core_.compareAndWriteAsync(req, [this, node, job_id](bool ok) {
      NodeState& my = nodeState(node);
      auto it = my.pending_coll.find(job_id);
      if (it != my.pending_coll.end()) it->second.caw_inflight = false;
      if (ok) ++stats_.collectives_scheduled;
      opFinished(node);
    });
  }
}

// ---------------------------------------------------------------------------
// P2P — Point-to-point Microphase (DMA Helper)
// ---------------------------------------------------------------------------

void Runtime::issueGets(int node) {
  // The node's queue swaps with the (empty) scratch vector, so no phase
  // reserves anew: a get lost in this phase re-queues into the scratch
  // vector's recycled capacity.
  std::vector<GetOp>& gets = gets_scratch_;
  gets.clear();
  gets.swap(nodeState(node).slice_gets);
  for (const GetOp& op : gets) {
    const ProgressKey key{op.job, op.dst_rank, op.recv_req};
    if (nodeEvicted(op.src_node)) {
      // Source died between scheduling and this phase.
      failRequest(op.job, op.dst_rank, op.recv_req, op.src_rank, op.tag);
      nodeState(node).chunk_progress.erase(key);
      continue;
    }
    opStarted(node);
    ++stats_.chunks_transferred;
    // The DH reads directly from the source process's memory — a one-sided
    // get, no intervention from either application process (Figure 6,
    // step 9).
    sim::Slots<GetInFlight>::Ref flight = gets_in_flight_.acquire();
    *flight = GetInFlight{op, node};
    core::XferRequest xfer;
    xfer.src_node = op.src_node;
    xfer.dest_nodes = {&node, 1};
    xfer.bytes = op.bytes;
    xfer.droppable = true;
    xfer.deliver = [this, flight](int) {
      const auto& [op, node] = *flight;
      const ProgressKey key{op.job, op.dst_rank, op.recv_req};
      // A zero-byte message may carry null buffers, which memcpy must not
      // be handed even for no bytes.
      if (op.bytes > 0) std::memcpy(op.dst, op.src, op.bytes);
      sim::traceRecord(
          trace_, cluster_.engine().now(), sim::TraceCategory::kDma, node, [&] {
            return "get " + std::to_string(op.bytes) + "B from rank " +
                   std::to_string(op.src_rank) +
                   (op.final_chunk ? " (final)" : "");
          });
      // Completion is by byte count, not by the final-chunk flag: under
      // retransmission an earlier chunk can land *after* the final one.
      NodeState& my = nodeState(node);
      std::size_t& got = my.chunk_progress[key];
      got += op.bytes;
      if (got >= op.message_bytes) {
        my.chunk_progress.erase(key);
        completeRequest(op.job, op.dst_rank, op.recv_req, op.src_rank, op.tag,
                        op.message_bytes);
        completeRequest(op.job, op.src_rank, op.send_req, op.dst_rank, op.tag,
                        op.message_bytes);
      }
      opFinished(node);
    };
    xfer.on_failed = [this, flight = std::move(flight)](int) {
      const auto& [op, node] = *flight;
      if (nodeEvicted(node)) {
        // We (the receiving node) died mid-flight; release the live sender.
        failRequest(op.job, op.src_rank, op.send_req, op.dst_rank, op.tag);
        opFinished(node);
        return;
      }
      if (nodeEvicted(op.src_node)) {
        failRequest(op.job, op.dst_rank, op.recv_req, op.src_rank, op.tag);
        nodeState(node).chunk_progress.erase(
            ProgressKey{op.job, op.dst_rank, op.recv_req});
      } else {
        // Random loss: re-issue the same get in the next slice's P2P.
        ++stats_.retransmits;
        sim::traceRecord(
            trace_, cluster_.engine().now(), sim::TraceCategory::kFault,
            node, [&] {
              return "chunk " + std::to_string(op.bytes) + "B from rank " +
                     std::to_string(op.src_rank) +
                     " lost; retrying next slice";
            });
        nodeState(node).slice_gets.push_back(op);
      }
      opFinished(node);
    };
    core_.xferAndSignal(std::move(xfer));
  }
}

}  // namespace bcs::bcsmpi
