#include "bcsmpi/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "sim/stats.hpp"

namespace bcs::bcsmpi {

const char* phaseName(Phase p) {
  switch (p) {
    case Phase::kDem: return "DEM";
    case Phase::kMsm: return "MSM";
    case Phase::kP2p: return "P2P";
    case Phase::kBbm: return "BBM";
    case Phase::kRm: return "RM";
  }
  return "?";
}

const char* collectiveTypeName(CollectiveType t) {
  switch (t) {
    case CollectiveType::kBarrier: return "barrier";
    case CollectiveType::kBcast: return "bcast";
    case CollectiveType::kReduce: return "reduce";
    case CollectiveType::kAllreduce: return "allreduce";
  }
  return "?";
}

Runtime::Runtime(net::Cluster& cluster, BcsMpiConfig config)
    : cluster_(cluster),
      config_(config),
      core_(cluster.fabric(), &cluster.trace()),
      trace_(&cluster.trace()),
      op_timers_(cluster.engine(), [this](int node) { opFinished(node); }),
      dem_drains_(cluster.engine(),
                  [this](int node) {
                    drainDescriptorFifos(node);
                    opFinished(node);
                  }),
      nodes_(static_cast<std::size_t>(cluster.numComputeNodes())),
      ctl_(nodes_.size()) {
  for (int n = 0; n < cluster.numComputeNodes(); ++n) {
    all_compute_nodes_.push_back(n);
  }
  live_compute_nodes_ = all_compute_nodes_;
  evicted_.assign(static_cast<std::size_t>(cluster.numComputeNodes()), 0);
  phase_done_var_ = core_.allocVar("phase_done", 0);
  epoch_var_ = core_.allocVar("control_epoch", 0);
  strobe_event_ = core_.allocEvent("microstrobe");
  coll_done_event_ = core_.allocEvent("collective-done");
  strobe_node_ = cluster.managementNode();
  tree_mode_ = config_.tree_fanout > 0;
  if (tree_mode_) {
    sstree_ = storm::SsTree(cluster.numComputeNodes(), config_.tree_fanout);
    tree_racks_.resize(static_cast<std::size_t>(sstree_.rackCount()));
  }
  stats_.tree_levels = static_cast<std::uint64_t>(sstree_.levels());
  if (config_.verify) {
    verifier_ = std::make_unique<verify::Verifier>(
        trace_, config_.verify_max_findings);
  }
}

// ---------------------------------------------------------------------------
// Job management
// ---------------------------------------------------------------------------

int Runtime::createJob(std::vector<int> node_of_rank) {
  JobState js;
  js.node_of_rank = std::move(node_of_rank);
  js.nodes = js.node_of_rank;
  std::sort(js.nodes.begin(), js.nodes.end());
  js.nodes.erase(std::unique(js.nodes.begin(), js.nodes.end()),
                 js.nodes.end());
  for (int n : js.nodes) {
    if (n < 0 || n >= cluster_.numComputeNodes()) {
      throw sim::SimError("createJob: bad node " + std::to_string(n));
    }
  }
  js.ranks.resize(js.node_of_rank.size());
  for (std::size_t r = 0; r < js.ranks.size(); ++r) {
    js.ranks[r].node = js.node_of_rank[r];
  }
  const int id = static_cast<int>(jobs_.size());
  js.coll_flag = core_.allocVar("coll_flag_j" + std::to_string(id), -1);
  js.coll_sched = core_.allocVar("coll_sched_j" + std::to_string(id), -1);
  jobs_.push_back(std::move(js));
  noteWork();  // a second job gives the Node Manager a gang decision
  return id;
}

void Runtime::registerProcess(int job, int rank, sim::Process& proc) {
  JobState& js = jobState(job);
  RankState& rs = rankState(job, rank);
  if (rs.proc != nullptr) {
    throw sim::SimError("registerProcess: duplicate registration");
  }
  rs.proc = &proc;
  ++js.registered;
  ++active_ranks_;
  // Runtime bring-up: NIC thread forking, NIC memory setup, STORM
  // handshakes.  Charged once per process, like MPI_Init.
  proc.compute(config_.runtime_init_overhead);
  // The Strobe Receiver on this rank's node starts its slice watchdog as
  // part of bring-up: from here on, microstrobe silence is suspicious.
  ctl_.last_strobe[rs.node] = proc.now();
  if (!ctl_.watchdog_armed[rs.node]) {
    armWatchdogAt(rs.node, ctl_.last_strobe[rs.node] + watchdogTimeout());
  }
  if (!strobing_) {
    strobing_ = true;
    slice_start_ = proc.now();
    cluster_.engine().at(slice_start_, [this] { startSlice(); });
  }
}

void Runtime::registerDetachedRank(int job, int rank) {
  JobState& js = jobState(job);
  RankState& rs = rankState(job, rank);
  if (rs.proc != nullptr || rs.detached) {
    throw sim::SimError("registerDetachedRank: duplicate registration");
  }
  rs.detached = true;
  ++js.registered;
  ++active_ranks_;
  // Same bring-up charge as registerProcess, but without a fiber to bill it
  // to: the rank becomes communication-ready after the init overhead.
  const SimTime ready = cluster_.engine().now() + config_.runtime_init_overhead;
  SimTime& last_strobe = ctl_.last_strobe[rs.node];
  last_strobe = std::max(last_strobe, ready);
  if (!ctl_.watchdog_armed[rs.node]) {
    armWatchdogAt(rs.node, last_strobe + watchdogTimeout());
  }
  if (!strobing_) {
    strobing_ = true;
    slice_start_ = ready;
    cluster_.engine().at(ready, [this] { startSlice(); });
  }
}

void Runtime::rankFinished(int job, int rank) {
  JobState& js = jobState(job);
  RankState& rs = rankState(job, rank);
  if (rs.finished) return;
  rs.finished = true;
  ++js.finished;
  --active_ranks_;
}

int Runtime::jobSize(int job) const {
  return static_cast<int>(jobs_.at(static_cast<std::size_t>(job))
                              .node_of_rank.size());
}

int Runtime::nodeOfRank(int job, int rank) const {
  return jobs_.at(static_cast<std::size_t>(job))
      .node_of_rank.at(static_cast<std::size_t>(rank));
}

Runtime::RankState& Runtime::rankState(int job, int rank) {
  return jobState(job).ranks.at(static_cast<std::size_t>(rank));
}

Runtime::JobState& Runtime::jobState(int job) {
  return jobs_.at(static_cast<std::size_t>(job));
}

Runtime::NodeState& Runtime::nodeState(int node) {
  return nodes_.at(static_cast<std::size_t>(node));
}

// ---------------------------------------------------------------------------
// Application-facing operations
// ---------------------------------------------------------------------------

std::uint64_t Runtime::postSend(int job, int rank, const void* buf,
                                std::size_t bytes, int dst, int tag) {
  if (dst < 0 || dst >= jobSize(job)) {
    throw sim::SimError("postSend: bad destination rank " +
                        std::to_string(dst));
  }
  RankState& rs = rankState(job, rank);
  if (rs.proc) rs.proc->compute(config_.post_overhead);
  const std::uint64_t req = rs.next_req++;
  rs.requests.emplace(req, ReqInfo{});

  SendDescriptor d;
  d.job = job;
  d.src_rank = rank;
  d.dst_rank = dst;
  d.tag = tag;
  d.data = static_cast<const std::byte*>(buf);
  d.bytes = bytes;
  d.request = req;
  d.posted_at = rs.proc ? rs.proc->now() : cluster_.engine().now();
  d.seq = ++desc_seq_;
  nodeState(rs.node).bs_fresh.push_back(d);
  noteWork();
  return req;
}

std::uint64_t Runtime::postRecv(int job, int rank, void* buf,
                                std::size_t bytes, int src, int tag) {
  RankState& rs = rankState(job, rank);
  if (rs.proc) rs.proc->compute(config_.post_overhead);
  const std::uint64_t req = rs.next_req++;
  rs.requests.emplace(req, ReqInfo{});

  RecvDescriptor d;
  d.job = job;
  d.dst_rank = rank;
  d.want_src = src;
  d.want_tag = tag;
  d.data = static_cast<std::byte*>(buf);
  d.bytes = bytes;
  d.request = req;
  d.posted_at = rs.proc ? rs.proc->now() : cluster_.engine().now();
  d.seq = ++desc_seq_;
  nodeState(rs.node).recv_fresh.push_back(d);
  noteWork();
  return req;
}

std::uint64_t Runtime::postCollective(int job, int rank, CollectiveType type,
                                      int root, const void* contrib,
                                      void* result, std::size_t count,
                                      mpi::Datatype dt, mpi::ReduceOp op) {
  RankState& rs = rankState(job, rank);
  if (rs.proc) rs.proc->compute(config_.post_overhead);
  const std::uint64_t req = rs.next_req++;
  rs.requests.emplace(req, ReqInfo{});

  CollectiveDescriptor d;
  d.job = job;
  d.rank = rank;
  d.type = type;
  d.gen = rs.next_coll_gen++;
  d.root = root;
  d.contrib = static_cast<const std::byte*>(contrib);
  d.result = static_cast<std::byte*>(result);
  d.count = count;
  d.dt = dt;
  d.op = op;
  d.request = req;
  d.posted_at = rs.proc ? rs.proc->now() : cluster_.engine().now();
  if (verifier_) {
    verifier_->onCollectivePosted(slice_index_, d.posted_at, rs.node, d,
                                  jobSize(job));
  }
  nodeState(rs.node).coll_fresh.push_back(d);
  noteWork();
  return req;
}

Runtime::ReqInfo& Runtime::reqInfo(int job, int rank, std::uint64_t req) {
  RankState& rs = rankState(job, rank);
  auto it = rs.requests.find(req);
  if (it == rs.requests.end()) {
    throw sim::SimError("unknown request " + std::to_string(req));
  }
  return it->second;
}

bool Runtime::peekRequest(int job, int rank, std::uint64_t req) const {
  const JobState& js = jobs_.at(static_cast<std::size_t>(job));
  const RankState& rs = js.ranks.at(static_cast<std::size_t>(rank));
  auto it = rs.requests.find(req);
  if (it == rs.requests.end()) {
    throw sim::SimError("peek on unknown request " + std::to_string(req));
  }
  return it->second.complete;
}

bool Runtime::testRequest(int job, int rank, std::uint64_t req,
                          mpi::Status* status) {
  ReqInfo& info = reqInfo(job, rank, req);
  if (!info.complete) return false;
  if (status) *status = info.status;
  rankState(job, rank).requests.erase(req);
  return true;
}

void Runtime::waitRequest(int job, int rank, std::uint64_t req,
                          mpi::Status* status, bool spin) {
  RankState& rs = rankState(job, rank);
  // Predicate loop: completion is marked by the NIC threads mid-slice.
  // Spin-waiters resume right then (completeRequest wakes them directly);
  // descheduled waiters are restarted by the NM at the next slice boundary.
  while (!reqInfo(job, rank, req).complete) {
    reqInfo(job, rank, req).spin_waited = spin;
    rs.proc->block();
  }
  if (status) *status = reqInfo(job, rank, req).status;
  rs.requests.erase(req);
}

bool Runtime::probe(int job, int rank, int src, int tag, mpi::Status* status,
                    bool blocking) {
  RankState& rs = rankState(job, rank);
  NodeState& ns = nodeState(rs.node);
  while (true) {
    RecvDescriptor want;
    want.job = job;
    want.dst_rank = rank;
    want.want_src = src;
    want.want_tag = tag;
    // The index reports the lowest-seq matching send — the same descriptor
    // the MSM would pair this probe's hypothetical receive with.
    const SendDescriptor* found = ns.remote_sends.lowestSeqMatch(want);
    if (!found) {
      // A message being transferred right now is also "arrived" for probe
      // purposes (its envelope is known to the BR).
      for (const auto& m : ns.match_queue) {
        if (m.recv.request == 0 && envelopeMatches(want, m.send)) {
          found = &m.send;
          break;
        }
      }
    }
    if (found) {
      if (status) {
        status->source = found->src_rank;
        status->tag = found->tag;
        status->bytes = found->bytes;
      }
      return true;
    }
    if (!blocking) return false;
    ns.probe_waiters.emplace_back(job, rank);
    noteWork();
    rs.proc->block();
  }
}

void Runtime::completeRequest(int job, int rank, std::uint64_t req, int peer,
                              int tag, std::size_t bytes) {
  RankState& rs = rankState(job, rank);
  auto it = rs.requests.find(req);
  if (it == rs.requests.end() || it->second.complete) return;
  it->second.complete = true;
  it->second.status.source = peer;
  it->second.status.tag = tag;
  it->second.status.bytes = bytes;
  ++rs.requests_completed;
  if (nodeEvicted(rs.node)) return;  // a dead rank is never woken
  if (it->second.spin_waited) {
    // A busy-polling MPI_Wait sees the flag flip right away (Figure 2(b)).
    if (rs.proc) rs.proc->wake();
  } else {
    nodeState(rs.node).wake_list.emplace_back(job, rank);
    noteWork();
  }
}

void Runtime::failRequest(int job, int rank, std::uint64_t req, int peer,
                          int tag) {
  RankState& rs = rankState(job, rank);
  auto it = rs.requests.find(req);
  if (it == rs.requests.end() || it->second.complete) return;
  it->second.complete = true;
  it->second.status.source = peer;
  it->second.status.tag = tag;
  it->second.status.bytes = 0;
  it->second.status.error = mpi::kErrPeerUnreachable;
  ++rs.requests_completed;
  ++stats_.requests_failed;
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kFault,
      rs.node, [&] {
        return "request " + std::to_string(req) + " of j" +
               std::to_string(job) + "/r" + std::to_string(rank) +
               " failed: peer rank " + std::to_string(peer) + " unreachable";
      });
  if (nodeEvicted(rs.node)) return;
  if (it->second.spin_waited) {
    if (rs.proc) rs.proc->wake();
  } else {
    nodeState(rs.node).wake_list.emplace_back(job, rank);
    noteWork();
  }
}

// ---------------------------------------------------------------------------
// Strobe Sender (management node)
// ---------------------------------------------------------------------------

void Runtime::startSlice() {
  if (stop_requested_) {
    strobing_ = false;
    return;
  }
  if (cluster_.faults()->nodeDown(strobe_node_, cluster_.engine().now())) {
    // The Strobe Sender's node is down: this slice is never strobed.  The
    // Strobe Receivers' slice watchdogs will notice the silence and elect a
    // backup, which resumes the strobe on the period grid.
    sim::traceRecord(
        trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
        strobe_node_, [] { return "Strobe Sender down; slice not strobed"; });
    strobing_ = false;
    return;
  }
  if (!pending_evictions_.empty()) {
    // Recovery slice: the microphases of the previous slice completed
    // without the dead node (it left the poll set the moment STORM declared
    // it), so the survivors are globally consistent here — scrub the queues,
    // fail what can no longer complete, checkpoint the rest.
    performRecovery();
    if (stop_requested_ || live_compute_nodes_.empty()) {
      strobing_ = false;
      return;
    }
  }
  if (!pending_rejoins_.empty()) performRejoins();
  if (!checkpoint_cbs_.empty()) {
    // Slice boundary: the previous slice's transfers are all complete, so
    // this snapshot is globally consistent without any message draining.
    const CheckpointRecord record = snapshot();
    std::vector<std::function<void(const CheckpointRecord&)>> cbs;
    cbs.swap(checkpoint_cbs_);
    for (auto& cb : cbs) cb(record);
  }
  if (config_.checkpoint_every_slices > 0 && snapshot_sink_ &&
      slice_index_ > 0 &&
      slice_index_ % config_.checkpoint_every_slices == 0) {
    // Periodic full-state snapshot (src/snapshot): the capture point.  The
    // sink observes, never mutates — a run with the sink installed traces
    // identically to one without (pinned by tests/test_snapshot.cpp).
    ++stats_.checkpoints_taken;
    snapshot_sink_(slice_index_);
  }
  if (verifier_) {
    // The slice boundary is the conceptual MSM reduction point: every
    // collective generation with a full rank set is color-reduced here.
    verifier_->onSliceBoundary(slice_index_, cluster_.engine().now());
  }
  ++slice_index_;
  ++stats_.slices;
  slice_start_ = cluster_.engine().now();
  root_msgs_slice_ = 0;
  if (replaySlice()) return;
  strobePhase(Phase::kDem);
}

void Runtime::resumeFromRestore() {
  // The restored state is exactly the capture point inside startSlice():
  // after recovery/rejoin processing, before the boundary bookkeeping.
  // Run the remaining tail verbatim so the continuation is byte-identical
  // to the run that was interrupted.
  strobing_ = true;
  if (verifier_) {
    verifier_->onSliceBoundary(slice_index_, cluster_.engine().now());
  }
  ++slice_index_;
  ++stats_.slices;
  slice_start_ = cluster_.engine().now();
  root_msgs_slice_ = 0;
  strobePhase(Phase::kDem);
}

void Runtime::requestCheckpoint(
    std::function<void(const CheckpointRecord&)> cb) {
  checkpoint_cbs_.push_back(std::move(cb));
}

CheckpointRecord Runtime::snapshot() const {
  CheckpointRecord record;
  record.slice = slice_index_;
  record.time = cluster_.engine().now();
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& js = jobs_[j];
    CheckpointRecord::JobSnapshot snap;
    snap.job = static_cast<int>(j);
    snap.ranks = static_cast<int>(js.ranks.size());
    snap.finished_ranks = js.finished;
    for (const RankState& rs : js.ranks) {
      snap.requests_posted += rs.next_req - 1;
      snap.requests_completed += rs.requests_completed;
    }
    record.jobs.push_back(snap);
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeState& ns = nodes_[n];
    CheckpointRecord::NodeSnapshot snap;
    snap.node = static_cast<int>(n);
    snap.fresh_sends = ns.bs_fresh.size();
    snap.fresh_recvs = ns.recv_fresh.size();
    snap.unmatched_remote = ns.remote_sends.size();
    snap.unmatched_recvs = ns.recv_eligible.size();
    for (const MatchDescriptor& m : ns.match_queue) {
      if (m.offset > 0) {
        ++snap.partial_messages;
        snap.partial_bytes_moved += m.offset;
        record.quiescent = false;
      }
    }
    record.nodes.push_back(snap);
  }
  return record;
}

void Runtime::strobePhase(Phase p) {
  if (live_compute_nodes_.empty()) {
    // Every compute node was evicted mid-slice; nothing left to strobe.
    maybeStop();
    strobing_ = false;
    return;
  }
  const std::uint64_t seq = ++phase_seq_;
  ++stats_.microstrobes;
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kStrobe,
      strobe_node_, [&] {
        return std::string("microstrobe ") + phaseName(p) + " slice " +
               std::to_string(slice_index_);
      });
  if (tree_mode_) {
    // Hierarchical control plane: strobe the rack-level SSes only; they
    // relay to their members and coalesce the completions (tree.cpp).
    strobePhaseTree(p, seq);
    return;
  }
  root_msgs_slice_ += live_compute_nodes_.size();
  core::XferRequest strobe;
  strobe.src_node = strobe_node_;
  strobe.dest_nodes = live_compute_nodes_;
  strobe.bytes = 16;  // phase id + sequence number
  strobe.deliver = [this, p, seq](int node) { onStrobe(node, p, seq); };
  core_.xferAndSignal(std::move(strobe));
  if (strobe_node_ < cluster_.numComputeNodes()) {
    // A backup Strobe Sender is itself a compute node; the fabric excludes
    // the multicast source from its own destination set, so its Strobe
    // Receiver hears the strobe through NIC-local memory instead.
    cluster_.engine().at(cluster_.engine().now(),
                         [this, p, seq, self = strobe_node_] {
                           onStrobe(self, p, seq);
                         });
  }
  pollPhaseDone(p, seq);
}

void Runtime::pollPhaseDone(Phase p, std::uint64_t seq) {
  if (live_compute_nodes_.empty()) {
    phaseComplete(p);
    return;
  }
  ++root_msgs_slice_;
  // Epoch fence: if a failover election promotes a new Strobe Sender while
  // this round is in flight, the stale chain must not continue strobing in
  // parallel with the new one.  (A *dead* old SS is already cut off by the
  // fabric suppressing its conditional results; the fence also covers an
  // old SS that is merely stalled.)
  const std::uint64_t epoch = control_epoch_;
  core_.compareAndWriteAsync(
      pollRequest(seq), [this, p, seq, epoch](bool done) {
        if (epoch != control_epoch_) return;
        if (done) {
          phaseComplete(p);
        } else {
          repoll(p, seq);
        }
      });
}

const core::CompareAndWriteRequest& Runtime::pollRequest(std::uint64_t seq) {
  // The node set is rebuilt on every poll round, so an eviction that happens
  // while a phase is stuck immediately unblocks the next poll: the dead node
  // (whose phase_done can never advance) is simply no longer asked.  The
  // request is reused, so the copy allocates nothing.
  core::CompareAndWriteRequest& req = poll_request_;
  req.src_node = strobe_node_;
  req.nodes = live_compute_nodes_;
  req.var = phase_done_var_;
  req.op = core::CmpOp::kGE;
  req.value = static_cast<std::int64_t>(seq);
  return req;
}

// A round that failed at E is followed by one issued a poll interval later.
// Until the next engine event, and while no live node or Strobe Sender goes
// down, nothing can change what a round evaluates, so every round evaluated
// in that stretch fails as this one did.  Such a round is counted, not run,
// when the round after it is also due before the next event; the poll
// timer is filed for the first round that is not (DESIGN.md §5b, "The flat
// Strobe Sender loop").
void Runtime::repoll(Phase p, std::uint64_t seq) {
  sim::Engine& engine = cluster_.engine();
  const SimTime next_event = engine.nextEventTime();
  const SimTime limit = engine.runLimit();
  const Duration interval = config_.strobe_poll_interval;
  const Duration latency = cluster_.fabric().conditionalLatency(
      static_cast<int>(live_compute_nodes_.size()));
  SimTime evaluated = engine.now();
  SimTime issue = evaluated + interval;
  // The round issued at `issue` fails when no live node or Strobe Sender is
  // down from the last evaluation through its own.  Counting it now is
  // exact when its successor is issued before anything else fires and no
  // later than run()'s limit, so no caller sees the count early.
  const auto countable = [&] {
    const SimTime successor = issue + latency + interval;
    return successor < next_event && successor <= limit &&
           !controlPlaneDownDuring(evaluated, issue + latency);
  };
  if (!live_compute_nodes_.empty() && countable()) {
    const core::CompareAndWriteRequest& round = pollRequest(seq);
    do {
      ++root_msgs_slice_;
      core_.countFailedCompareAndWrite(round, issue);
      evaluated = issue + latency;
      issue = evaluated + interval;
    } while (countable());
  }
  const std::uint64_t epoch = control_epoch_;
  engine.at(issue, [this, p, seq, epoch] {
    if (epoch != control_epoch_) return;
    pollPhaseDone(p, seq);
  });
}

void Runtime::phaseComplete(Phase p) {
  if (p != Phase::kRm) {
    strobePhase(static_cast<Phase>(static_cast<int>(p) + 1));
    return;
  }
  // Slice finished.  Stop if all work is done, otherwise schedule the next
  // slice on the fixed period grid.
  stats_.fanout_msgs_per_slice = root_msgs_slice_;
  maybeStop();
  if (stop_requested_) {
    strobing_ = false;
    return;
  }
  const SimTime now = cluster_.engine().now();
  SimTime next = slice_start_ + config_.time_slice;
  if (next <= now) {
    ++stats_.slice_overruns;
    // Slipped past the boundary: re-align to the period grid.
    const std::uint64_t k = static_cast<std::uint64_t>(
        (now - slice_start_) / config_.time_slice);
    next = slice_start_ + static_cast<SimTime>(k + 1) * config_.time_slice;
  }
  const std::uint64_t epoch = control_epoch_;
  cluster_.engine().at(next, [this, epoch] {
    if (epoch != control_epoch_) return;
    startSlice();
  });
  if (recording_.active) finishRecording(next);
}

void Runtime::maybeStop() {
  if (active_ranks_ > 0 || stop_requested_) return;
  // All ranks finished; queues must be empty (a rank only finishes after
  // its operations completed), so the strobe can stop.
  stop_requested_ = true;
  stopWatchdogs();
  if (verifier_ && !verifier_->finalized()) runVerifyAudit();
}

// ---------------------------------------------------------------------------
// Quiescent-slice replay (DESIGN.md §5b)
// ---------------------------------------------------------------------------
//
// A slice that starts with nothing to do on any live node runs a fixed
// schedule: the strobe, the DEM and MSM floors, three empty transmission
// microphases.  The first such slice under a control plane runs normally
// and is recorded; later ones apply the recording, a fill per field over
// runs of nodes that end the slice alike, and schedule the next slice, one
// engine event in all.
//
// Why this is exact.  Replay demands that no engine event falls at or
// before the recorded RM completion S + rm_offset, so in the normal run
// only the slice's own events fire in [S, S + rm_offset], and nothing they
// do leaves the runtime, fabric or core state the template covers.  The
// next startSlice key is drawn at S instead of at RM completion; no other
// key is drawn in between, so every surviving event keeps its order
// relative to it.  The window also ends within the engine's run limit, so
// a caller never sees the slice before the time it would have completed.

bool Runtime::nodeIdle(const NodeState& ns, Phase p) const {
  // An entry in pending_coll outlives its operation (active flips false on
  // completion), so emptiness of the map is the wrong test — scan for an
  // actionable entry instead.  Conservative on purpose: any active
  // collective marks the MSM/BBM/RM phases busy without re-deriving the
  // scheduling preconditions those phases check themselves.
  const auto any_collective = [&ns] {
    for (const auto& [job, pc] : ns.pending_coll) {
      if (pc.active && !pc.executing) return true;
    }
    return false;
  };
  switch (p) {
    case Phase::kDem:
      // The Node Manager's slice-start duties count as DEM work: processes
      // to wake (completions and blocked probes) and the gang-scheduling
      // decision.
      return ns.wake_list.empty() && ns.probe_waiters.empty() &&
             !(config_.gang_scheduling && jobs_.size() > 1) &&
             ns.bs_retry.empty() && ns.bs_fresh.empty() &&
             ns.recv_fresh.empty() && ns.coll_fresh.empty() &&
             ns.rma_fresh.empty() && ns.rma_retry.empty();
    case Phase::kMsm:
      // Mirrors matchDescriptors' own early-out (matching needs both sides)
      // plus the chunk scheduler's queue, the RMA epoch apply and the
      // collective CAW query.
      return (ns.recv_eligible.empty() || ns.remote_sends.empty()) &&
             ns.match_queue.empty() && ns.rma_inbound.empty() &&
             !any_collective();
    case Phase::kP2p:
      return ns.slice_gets.empty() && ns.rma_returns.empty();
    case Phase::kBbm:
    case Phase::kRm:
      return !any_collective();
  }
  return false;
}

bool Runtime::sliceQuiescent(SimTime now, bool after_replay) {
  if (trace_->enabled() || active_ranks_ == 0 || live_compute_nodes_.empty()) {
    return false;
  }
  // A replayed slice changes no node queue and arms or disarms no watchdog,
  // and everything else that does between slices bumps work_epoch_: rank-
  // side posts, blocking probes, wake-list pushes, job creation, a watchdog
  // left disarmed (and evictions, rejoins and elections end the replay run
  // through dropSliceTemplate).  So the last walk's verdict still holds.
  if (!after_replay || work_epoch_ != idle_epoch_) {
    for (int n : live_compute_nodes_) {
      const NodeState& ns = nodes_[static_cast<std::size_t>(n)];
      if (config_.watchdog_slices > 0 && !ctl_.watchdog_armed[n]) {
        return false;
      }
      for (int p = 0; p < kNumPhases; ++p) {
        if (!nodeIdle(ns, static_cast<Phase>(p))) return false;
      }
    }
    idle_epoch_ = work_epoch_;
  }
  return cluster_.fabric().quiet(now);
}

bool Runtime::controlPlaneDownDuring(SimTime from, SimTime to) const {
  const int compute = cluster_.numComputeNodes();
  return cluster_.faults()->anyDownDuring(from, to, [&](int node) {
    return node == strobe_node_ || (node >= 0 && node < compute &&
                                    !nodeEvicted(node));
  });
}

bool Runtime::replaySlice() {
  recording_.active = false;
  const bool after_replay = std::exchange(slice_replayed_, false);
  sim::Engine& engine = cluster_.engine();
  const SimTime now = engine.now();
  // The O(1) tests first: a pending event in the window declines before
  // the O(nodes) walk.
  const SimTime next_event = engine.nextEventTime();
  if (next_event <= now) return false;
  if (slice_template_) {
    const SimTime end = now + slice_template_->rm_offset;
    if (next_event <= end || end > engine.runLimit()) return false;
  }
  if (!sliceQuiescent(now, after_replay)) return false;
  if (!slice_template_) {
    // Record this slice if it runs undisturbed to its RM completion; that
    // is checked when it gets there (finishRecording).
    SliceRecording& r = recording_;
    r.active = true;
    r.start = now;
    r.next_event = next_event;
    r.pending = engine.pendingEvents();
    r.phase_seq = phase_seq_;
    r.stats = stats_;
    cluster_.fabric().mark(r.fabric);
    r.nodes.resize(live_compute_nodes_.size());
    for (std::size_t i = 0; i < live_compute_nodes_.size(); ++i) {
      const int n = live_compute_nodes_[i];
      SliceTemplate::NodeEnd& e = r.nodes[i];
      e.phase_seq = static_cast<std::int64_t>(ctl_.phase_seq[n]);
      e.phase_done = core_.readVar(n, phase_done_var_);
      e.last_strobe = ctl_.last_strobe[n];
    }
    r.racks.resize(tree_racks_.size());
    for (std::size_t k = 0; k < tree_racks_.size(); ++k) {
      r.racks[k].seq = static_cast<std::int64_t>(tree_racks_[k].seq);
      r.racks[k].acked_seq = static_cast<std::int64_t>(tree_racks_[k].acked_seq);
    }
    return false;
  }
  const SliceTemplate& t = *slice_template_;
  if (controlPlaneDownDuring(now, now + t.rm_offset)) return false;
  const std::int64_t base = static_cast<std::int64_t>(phase_seq_);
  phase_seq_ += t.phases;
  stats_ = sim::zipCounters(stats_, t.stats, std::plus<>());
  stats_.fanout_msgs_per_slice = t.root_msgs;
  root_msgs_slice_ = t.root_msgs;
  cluster_.fabric().apply(t.fabric, now);
  constexpr std::int64_t kKeep = SliceTemplate::kKeep;
  for (const SliceTemplate::NodeRun& run : t.nodes) {
    const SliceTemplate::NodeEnd& e = run.end;
    const auto fill = [&run](auto& field, auto value) {
      std::fill_n(field.begin() + run.first, run.count, value);
    };
    if (e.phase_seq != kKeep) {
      fill(ctl_.phase_seq, static_cast<std::uint64_t>(base + e.phase_seq));
    }
    if (e.phase_done != kKeep) {
      core_.fillVarLocal(run.first, run.count, phase_done_var_,
                         base + e.phase_done);
    }
    if (e.last_strobe != kKeep) fill(ctl_.last_strobe, now + e.last_strobe);
    fill(ctl_.outstanding, e.outstanding);
    fill(ctl_.tree_floor, static_cast<char>(e.tree_floor));
    fill(ctl_.tree_drain, static_cast<char>(e.tree_drain));
  }
  for (std::size_t k = 0; k < t.racks.size(); ++k) {
    const SliceTemplate::RackEnd& e = t.racks[k];
    TreeRackState& rk = tree_racks_[k];
    if (e.seq != kKeep) rk.seq = static_cast<std::uint64_t>(base + e.seq);
    if (e.acked_seq != kKeep) {
      rk.acked_seq = static_cast<std::uint64_t>(base + e.acked_seq);
    }
    rk.pending = e.pending;
  }
  tree_phase_ = t.tree_phase;
  tree_phase_open_ = t.tree_phase_open;
  const std::uint64_t epoch = control_epoch_;
  engine.at(now + t.next_offset, [this, epoch] {
    if (epoch != control_epoch_) return;
    startSlice();
  });
  slice_replayed_ = true;
  return true;
}

void Runtime::finishRecording(SimTime next) {
  SliceRecording& r = recording_;
  r.active = false;
  const sim::Engine& engine = cluster_.engine();
  const SimTime now = engine.now();
  // Undisturbed: no event that was pending at S has fired, and the slice
  // left nothing pending but the next startSlice.
  if (r.next_event <= now || engine.pendingEvents() != r.pending + 1 ||
      controlPlaneDownDuring(r.start, now)) {
    return;
  }
  constexpr std::int64_t kKeep = SliceTemplate::kKeep;
  const std::int64_t base = static_cast<std::int64_t>(r.phase_seq);
  const auto rel = [](std::int64_t after, std::int64_t before,
                      std::int64_t origin) {
    return after == before ? kKeep : after - origin;
  };
  SliceTemplate t;
  t.rm_offset = now - r.start;
  t.next_offset = next - r.start;
  t.phases = phase_seq_ - r.phase_seq;
  t.stats = sim::zipCounters(stats_, r.stats, std::minus<>());
  t.root_msgs = root_msgs_slice_;
  t.fabric = cluster_.fabric().deltaSince(r.fabric, r.start);
  for (std::size_t i = 0; i < live_compute_nodes_.size(); ++i) {
    const int n = live_compute_nodes_[i];
    const SliceTemplate::NodeEnd& was = r.nodes[i];
    SliceTemplate::NodeEnd e;
    e.phase_seq = rel(static_cast<std::int64_t>(ctl_.phase_seq[n]),
                      was.phase_seq, base);
    e.phase_done =
        rel(core_.readVar(n, phase_done_var_), was.phase_done, base);
    e.last_strobe = rel(ctl_.last_strobe[n], was.last_strobe, r.start);
    e.outstanding = ctl_.outstanding[n];
    e.tree_floor = ctl_.tree_floor[n] != 0;
    e.tree_drain = ctl_.tree_drain[n] != 0;
    if (!t.nodes.empty()) {
      SliceTemplate::NodeRun& run = t.nodes.back();
      if (run.first + run.count == n && run.end == e) {
        ++run.count;
        continue;
      }
    }
    t.nodes.push_back({n, 1, e});
  }
  t.racks.resize(tree_racks_.size());
  for (std::size_t k = 0; k < tree_racks_.size(); ++k) {
    const TreeRackState& rk = tree_racks_[k];
    SliceTemplate::RackEnd& e = t.racks[k];
    e.seq = rel(static_cast<std::int64_t>(rk.seq), r.racks[k].seq, base);
    e.acked_seq = rel(static_cast<std::int64_t>(rk.acked_seq),
                      r.racks[k].acked_seq, base);
    e.pending = rk.pending;
  }
  t.tree_phase = tree_phase_;
  t.tree_phase_open = tree_phase_open_;
  slice_template_ = std::move(t);
}

// ---------------------------------------------------------------------------
// Protocol verification (src/verify)
// ---------------------------------------------------------------------------

const verify::VerifyReport* Runtime::verifyAudit() {
  if (!verifier_) return nullptr;
  if (!verifier_->finalized()) runVerifyAudit();
  return &verifier_->report();
}

void Runtime::runVerifyAudit() {
  using verify::Category;
  const SimTime now = cluster_.engine().now();
  verify::Verifier& v = *verifier_;
  auto leak = [&](Category cat, int node, int job, int rank,
                  std::string detail) {
    v.addFinding(cat, now, slice_index_, node, job, rank, std::move(detail));
  };
  for (int n : all_compute_nodes_) {
    // Evicted nodes were scrubbed at recovery (their requests completed in
    // error); auditing the rebuilt empty state would only mask that.
    if (nodeEvicted(n)) continue;
    NodeState& ns = nodeState(n);
    for (const SendDescriptor& d : ns.bs_fresh) {
      leak(Category::kLeakedDescriptor, n, d.job, d.src_rank,
           "send to rank " + std::to_string(d.dst_rank) + " tag " +
               std::to_string(d.tag) + " (" + std::to_string(d.bytes) +
               "B, req " + std::to_string(d.request) + ", posted at " +
               sim::formatTime(d.posted_at) + ") never exchanged");
    }
    for (const SendDescriptor& d : ns.bs_retry) {
      leak(Category::kOrphanedRetransmit, n, d.job, d.src_rank,
           "send to rank " + std::to_string(d.dst_rank) + " tag " +
               std::to_string(d.tag) + " stuck after " +
               std::to_string(d.retries) + " retransmission(s)");
    }
    ns.remote_sends.forEach([&](const SendDescriptor& d) {
      leak(Category::kLeakedDescriptor, n, d.job, d.src_rank,
           "exchanged send from rank " + std::to_string(d.src_rank) +
               " to rank " + std::to_string(d.dst_rank) + " tag " +
               std::to_string(d.tag) + " (" + std::to_string(d.bytes) +
               "B, posted at " + sim::formatTime(d.posted_at) +
               ") never matched a receive");
    });
    for (const RecvDescriptor& d : ns.recv_fresh) {
      leak(Category::kLeakedDescriptor, n, d.job, d.dst_rank,
           "recv (src " + std::to_string(d.want_src) + ", tag " +
               std::to_string(d.want_tag) + ", req " +
               std::to_string(d.request) + ") never left the NIC FIFO");
    }
    ns.recv_eligible.forEach([&](const RecvDescriptor& d) {
      leak(Category::kLeakedDescriptor, n, d.job, d.dst_rank,
           "recv (src " + std::to_string(d.want_src) + ", tag " +
               std::to_string(d.want_tag) + ", req " +
               std::to_string(d.request) + ", posted at " +
               sim::formatTime(d.posted_at) + ") never matched a send");
    });
    for (const MatchDescriptor& m : ns.match_queue) {
      leak(Category::kLeakedDescriptor, n, m.send.job, m.recv.dst_rank,
           "matched message from rank " + std::to_string(m.send.src_rank) +
               " tag " + std::to_string(m.send.tag) + " stalled at " +
               std::to_string(m.offset) + "/" +
               std::to_string(m.send.bytes) + "B");
    }
    for (const GetOp& op : ns.slice_gets) {
      leak(Category::kOrphanedRetransmit, n, op.job, op.dst_rank,
           "scheduled chunk (" + std::to_string(op.bytes) + "B from rank " +
               std::to_string(op.src_rank) + ") never transferred");
    }
    for (const RmaOpDescriptor& op : ns.rma_fresh) {
      leak(Category::kLeakedDescriptor, n, op.job, op.origin_rank,
           std::string("rma ") + rmaKindName(op.kind) + " to window " +
               std::to_string(op.window) + " of rank " +
               std::to_string(op.target_rank) + " (req " +
               std::to_string(op.request) + ", posted at " +
               sim::formatTime(op.posted_at) + ") never exchanged");
    }
    for (const RmaOpDescriptor& op : ns.rma_retry) {
      leak(Category::kOrphanedRetransmit, n, op.job, op.origin_rank,
           std::string("rma ") + rmaKindName(op.kind) + " to window " +
               std::to_string(op.window) + " of rank " +
               std::to_string(op.target_rank) + " stuck after " +
               std::to_string(op.retries) + " retransmission(s)");
    }
    for (const RmaOpDescriptor& op : ns.rma_inbound) {
      leak(Category::kLeakedDescriptor, n, op.job, op.target_rank,
           std::string("rma ") + rmaKindName(op.kind) + " from rank " +
               std::to_string(op.origin_rank) + " on window " +
               std::to_string(op.window) + " (req " +
               std::to_string(op.request) + ") never applied");
    }
    for (const RmaOpDescriptor& op : ns.rma_returns) {
      leak(Category::kOrphanedRetransmit, n, op.job, op.target_rank,
           std::string("rma ") + rmaKindName(op.kind) + " completion for rank " +
               std::to_string(op.origin_rank) + " (req " +
               std::to_string(op.request) + ") never returned to origin");
    }
    {
      // chunk_progress is an unordered_map; normalize to key order before
      // reporting so the audit is replay-identical.
      std::vector<ProgressKey> keys;
      keys.reserve(ns.chunk_progress.size());
      for (const auto& [key, bytes] : ns.chunk_progress) keys.push_back(key);
      std::sort(keys.begin(), keys.end(), [](const ProgressKey& a,
                                             const ProgressKey& b) {
        if (a.job != b.job) return a.job < b.job;
        if (a.dst_rank != b.dst_rank) return a.dst_rank < b.dst_rank;
        return a.recv_req < b.recv_req;
      });
      for (const ProgressKey& key : keys) {
        leak(Category::kOrphanedRetransmit, n, key.job, key.dst_rank,
             "partial byte accounting for req " +
                 std::to_string(key.recv_req) + " (" +
                 std::to_string(ns.chunk_progress.at(key)) +
                 "B landed) with no completion");
      }
    }
    for (const CollectiveDescriptor& d : ns.coll_fresh) {
      leak(Category::kLeakedDescriptor, n, d.job, d.rank,
           "collective #" + std::to_string(d.gen) +
               " descriptor never pre-processed");
    }
    for (const auto& [job, pc] : ns.pending_coll) {
      if (!pc.active) continue;
      leak(Category::kLeakedDescriptor, n, job,
           pc.local.empty() ? -1 : pc.local.front().rank,
           "collective #" + std::to_string(pc.gen) + " (" +
               std::string(collectiveTypeName(pc.type)) + ", " +
               std::to_string(pc.local.size()) +
               " local rank(s)) never globally scheduled");
    }
  }
  // Tree mode: walk the per-rack SS queues in rack order so a coalesced ack
  // stuck below the root is reported with rack provenance (tree.cpp).
  if (tree_mode_) treeAudit(v, now);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& js = jobs_[j];
    for (std::size_t r = 0; r < js.ranks.size(); ++r) {
      const RankState& rs = js.ranks[r];
      // The request table is an unordered_map; sort the ids so identical
      // runs report identical orders.
      std::vector<std::uint64_t> open;
      for (const auto& [req, info] : rs.requests) {
        if (!info.complete) open.push_back(req);
      }
      std::sort(open.begin(), open.end());
      for (std::uint64_t req : open) {
        leak(Category::kUnfinishedRequest, rs.node, static_cast<int>(j),
             static_cast<int>(r),
             "request " + std::to_string(req) + " never completed" +
                 (rs.finished ? " (rank exited without waiting)" : ""));
      }
    }
  }
  v.finalizeAudit(now, slice_index_);
}

// ---------------------------------------------------------------------------
// Strobe Receiver + NIC threads (compute nodes)
// ---------------------------------------------------------------------------

void Runtime::opStarted(int node) { ++ctl_.outstanding[node]; }

void Runtime::opFinished(int node) {
  if (--ctl_.outstanding[node] == 0) {
    // The phase_done replica is written in both modes: tree-mode recovery
    // after a root election still quiesces via this variable.
    core_.writeVarLocal(node, phase_done_var_,
                        static_cast<std::int64_t>(ctl_.phase_seq[node]));
    if (tree_mode_) treeMemberDone(node);
  }
}

void Runtime::beginNodePhase(int node, std::uint64_t seq, Duration floor,
                             Duration work_cost) {
  ctl_.phase_seq[node] = seq;
  ctl_.outstanding[node] = 0;
  // One token for the NIC-thread processing time (at least the phase
  // floor).  An idle node's token is released by an event at this very
  // instant, so the outstanding counter still guards against completing
  // before the node's other work is scheduled.
  opStarted(node);
  op_timers_.afterRange(std::max(floor, work_cost), node);
}

void Runtime::onStrobe(int node, Phase p, std::uint64_t seq) {
  if (nodeEvicted(node)) return;  // strobe raced an eviction
  // Feed the slice watchdog: a strobe is proof of Strobe Sender life.
  ctl_.last_strobe[node] = cluster_.engine().now();
  if (!ctl_.watchdog_armed[node]) {
    armWatchdogAt(node, ctl_.last_strobe[node] + watchdogTimeout());
  }
  switch (p) {
    case Phase::kDem: runDem(node, seq); return;
    case Phase::kMsm: runMsm(node, seq); return;
    case Phase::kP2p: runP2p(node, seq); return;
    case Phase::kBbm: runBbm(node, seq); return;
    case Phase::kRm: runRm(node, seq); return;
  }
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void Runtime::notifyNodeFailure(int node) {
  if (node < 0 || node >= cluster_.numComputeNodes() || nodeEvicted(node)) {
    return;
  }
  evicted_[static_cast<std::size_t>(node)] = 1;
  ++stats_.evictions;
  dropSliceTemplate();
  live_compute_nodes_.erase(std::remove(live_compute_nodes_.begin(),
                                        live_compute_nodes_.end(), node),
                            live_compute_nodes_.end());
  pending_evictions_.push_back(node);
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kFault, node, [] {
        return "node evicted; recovery at next slice boundary";
      });
  // Tree repair runs immediately (not at the boundary): the in-flight
  // microphase must be able to finish without the dead member, and a dead
  // rack SS needs a successor before the rack can ack anything.
  if (tree_mode_) treeHandleEviction(node);
}

void Runtime::performRecovery() {
  ++stats_.recovery_slices;
  std::vector<int> dead;
  dead.swap(pending_evictions_);
  for (int node : dead) evictNodeState(node);
  // The survivors' state is globally consistent at this boundary (the dead
  // node completed no transfers after leaving the poll set): take the
  // coordinated checkpoint the paper's §6 sketches.
  recovery_records_.push_back(snapshot());
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kFault, -1, [&] {
        return "recovery complete: " + std::to_string(dead.size()) +
               " node(s) evicted, checkpoint at slice " +
               std::to_string(slice_index_);
      });
  maybeStop();
}

void Runtime::evictNodeState(int node) {
  NodeState& dead_ns = nodeState(node);

  // 1. Requests of *live* ranks whose completion depended on the dead node's
  //    local queues.  (The counterpart descriptor lives on the dead node and
  //    will be discarded below.)
  dead_ns.remote_sends.forEach([this](const SendDescriptor& s) {
    // A send whose descriptor reached the dead BR but never matched: the
    // (live) sender's request can no longer complete.
    failRequest(s.job, s.src_rank, s.request, s.dst_rank, s.tag);
  });
  for (const MatchDescriptor& m : dead_ns.match_queue) {
    failRequest(m.send.job, m.send.src_rank, m.send.request, m.recv.dst_rank,
                m.send.tag);
  }
  for (const GetOp& op : dead_ns.slice_gets) {
    // Chunks the dead DH would have pulled from live senders.
    failRequest(op.job, op.src_rank, op.send_req, op.dst_rank, op.tag);
  }
  // RMA ops from live origins that reached the dead node — arrived but not
  // applied (rma_inbound), or applied with the completion still queued
  // (rma_returns) — can no longer complete normally.
  for (const RmaOpDescriptor& op : dead_ns.rma_inbound) {
    if (nodeOfRank(op.job, op.origin_rank) == node) continue;
    failRequest(op.job, op.origin_rank, op.request, op.target_rank, op.window);
  }
  for (const RmaOpDescriptor& op : dead_ns.rma_returns) {
    if (nodeOfRank(op.job, op.origin_rank) == node) continue;
    failRequest(op.job, op.origin_rank, op.request, op.target_rank, op.window);
  }

  // 2. Ranks on the dead node are gone; their jobs run degraded.  Their RMA
  //    windows go with them — remote ops targeting them fail at the next
  //    drain instead of writing into unreachable NIC memory.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    JobState& js = jobs_[j];
    for (std::size_t r = 0; r < js.ranks.size(); ++r) {
      if (js.node_of_rank[r] != node) continue;
      windows_.dropOwner(
          windowOwnerKey(static_cast<int>(j), static_cast<int>(r)));
      if (js.ranks[r].finished) continue;
      js.degraded = true;
      rankFinished(static_cast<int>(j), static_cast<int>(r));
    }
  }

  // 3. Drop every queue of the dead node (its NIC memory is unreachable).
  dead_ns = NodeState{};
  ctl_.reset(node);

  // 4. Scrub the survivors' queues of work pinned to the dead node.
  for (int n : live_compute_nodes_) {
    NodeState& ns = nodeState(n);
    auto send_to_dead = [this, node](const SendDescriptor& s) {
      if (nodeOfRank(s.job, s.dst_rank) != node) return false;
      failRequest(s.job, s.src_rank, s.request, s.dst_rank, s.tag);
      return true;
    };
    ns.bs_fresh.erase(
        std::remove_if(ns.bs_fresh.begin(), ns.bs_fresh.end(), send_to_dead),
        ns.bs_fresh.end());
    ns.bs_retry.erase(
        std::remove_if(ns.bs_retry.begin(), ns.bs_retry.end(), send_to_dead),
        ns.bs_retry.end());
    auto recv_from_dead = [this, node](const RecvDescriptor& r) {
      if (r.want_src == mpi::kAnySource ||
          nodeOfRank(r.job, r.want_src) != node) {
        return false;
      }
      failRequest(r.job, r.dst_rank, r.request, r.want_src, r.want_tag);
      return true;
    };
    ns.recv_fresh.erase(std::remove_if(ns.recv_fresh.begin(),
                                       ns.recv_fresh.end(), recv_from_dead),
                        ns.recv_fresh.end());
    ns.recv_eligible.eraseIf(recv_from_dead);
    // Unexchanged RMA ops aimed at the dead node's windows can never apply.
    auto rma_to_dead = [this, node](const RmaOpDescriptor& op) {
      if (nodeOfRank(op.job, op.target_rank) != node) return false;
      failRequest(op.job, op.origin_rank, op.request, op.target_rank,
                  op.window);
      return true;
    };
    ns.rma_fresh.erase(std::remove_if(ns.rma_fresh.begin(),
                                      ns.rma_fresh.end(), rma_to_dead),
                       ns.rma_fresh.end());
    ns.rma_retry.erase(std::remove_if(ns.rma_retry.begin(),
                                      ns.rma_retry.end(), rma_to_dead),
                       ns.rma_retry.end());
    // Inbound ops and queued completions whose origin rank died drop
    // silently — there is no one left to complete them to.
    auto origin_dead = [this, node](const RmaOpDescriptor& op) {
      return nodeOfRank(op.job, op.origin_rank) == node;
    };
    ns.rma_inbound.erase(std::remove_if(ns.rma_inbound.begin(),
                                        ns.rma_inbound.end(), origin_dead),
                         ns.rma_inbound.end());
    ns.rma_returns.erase(std::remove_if(ns.rma_returns.begin(),
                                        ns.rma_returns.end(), origin_dead),
                         ns.rma_returns.end());
    // Descriptors that arrived *from* ranks of the dead node can never be
    // paid off by a DH get; discard them so probes stop seeing ghosts.
    ns.remote_sends.eraseIf([this, node](const SendDescriptor& s) {
      return nodeOfRank(s.job, s.src_rank) == node;
    });
    ns.match_queue.erase(
        std::remove_if(ns.match_queue.begin(), ns.match_queue.end(),
                       [this, node, &ns](const MatchDescriptor& m) {
                         if (nodeOfRank(m.send.job, m.send.src_rank) != node) {
                           return false;
                         }
                         failRequest(m.recv.job, m.recv.dst_rank,
                                     m.recv.request, m.send.src_rank,
                                     m.send.tag);
                         ns.chunk_progress.erase(ProgressKey{
                             m.recv.job, m.recv.dst_rank, m.recv.request});
                         return true;
                       }),
        ns.match_queue.end());
    ns.slice_gets.erase(
        std::remove_if(ns.slice_gets.begin(), ns.slice_gets.end(),
                       [this, node, &ns](const GetOp& op) {
                         if (op.src_node != node) return false;
                         failRequest(op.job, op.dst_rank, op.recv_req,
                                     op.src_rank, op.tag);
                         ns.chunk_progress.erase(
                             ProgressKey{op.job, op.dst_rank, op.recv_req});
                         return true;
                       }),
        ns.slice_gets.end());
    // Collectives of a degraded job can never be globally scheduled (the
    // dead node's flag variable will not advance): fail the ones that have
    // not started executing.  A collective already mid-execution is left
    // alone — see DESIGN.md, "Fault model", documented limitations.
    for (auto& [job, pc] : ns.pending_coll) {
      if (!pc.active || pc.executing || !jobState(job).degraded) continue;
      for (const CollectiveDescriptor& d : pc.local) {
        failRequest(d.job, d.rank, d.request, mpi::kAnySource, mpi::kAnyTag);
      }
      pc.active = false;
      pc.local.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// Control-plane failover: slice watchdogs, backup-SS election, rejoin
// ---------------------------------------------------------------------------

void Runtime::armWatchdogAt(int node, SimTime when) {
  if (config_.watchdog_slices <= 0 || stop_requested_) return;
  const SimTime at = std::max(when, cluster_.engine().now());
  ctl_.watchdog_armed[node] = true;
  ctl_.watchdog_at[node] = at;
  if (!running_watchdogs_) {
    scheduleWatchdogTimer(at);
  } else if (node < watchdog_cursor_) {
    watchdog_rescan_ = true;
  }
}

SimTime Runtime::watchdogRecheckAt(SimTime deadline, SimTime now) const {
  // Elections and overruns resume on slice_start_ + k * time_slice, so the
  // grid is the same one every slice boundary of the run sits on.
  const Duration period = config_.time_slice;
  Duration past = (deadline - slice_start_) % period;
  if (past < 0) past += period;
  const SimTime boundary = deadline - past;
  return boundary > now ? boundary : deadline;
}

void Runtime::scheduleWatchdogTimer(SimTime at) {
  if (at >= watchdog_timer_at_) return;
  sim::Engine& engine = cluster_.engine();
  if (watchdog_timer_at_ != kNoTimer) engine.cancel(watchdog_timer_);
  watchdog_timer_at_ = at;
  watchdog_timer_ = engine.at(at, [this] { runDueWatchdogs(); });
}

void Runtime::runDueWatchdogs() {
  watchdog_timer_at_ = kNoTimer;
  const SimTime now = cluster_.engine().now();
  running_watchdogs_ = true;
  watchdog_rescan_ = false;
  // One pass in ascending node order runs the due watchdogs and takes the
  // earliest deadline left behind.  A node a watchdog arms further on is
  // seen when the pass gets there, as if it had been armed before.
  SimTime next = kNoTimer;
  const int nodes = static_cast<int>(nodes_.size());
  for (int n = 0; n < nodes; ++n) {
    if (!ctl_.watchdog_armed[n]) continue;
    if (ctl_.watchdog_at[n] <= now) {
      // The common outcome stays inline: the node checks again later, as
      // onWatchdog's disarm and re-arm would leave it.
      const SimTime recheck = watchdogRecheck(n, now);
      if (recheck != kNoTimer) {
        ctl_.watchdog_at[n] = recheck;
      } else {
        watchdog_cursor_ = n;
        onWatchdog(n);
        // The quiescence walk must see a live node whose watchdog stays off.
        if (!ctl_.watchdog_armed[n]) {
          if (!nodeEvicted(n)) noteWork();
          continue;
        }
      }
    }
    next = std::min(next, ctl_.watchdog_at[n]);
  }
  running_watchdogs_ = false;
  watchdog_cursor_ = 0;
  if (watchdog_rescan_) {
    next = kNoTimer;
    for (int n = 0; n < nodes; ++n) {
      if (ctl_.watchdog_armed[n]) next = std::min(next, ctl_.watchdog_at[n]);
    }
  }
  if (next != kNoTimer) scheduleWatchdogTimer(next);
}

void Runtime::onWatchdog(int node) {
  ctl_.watchdog_armed[node] = false;
  const SimTime now = cluster_.engine().now();
  const SimTime recheck = watchdogRecheck(node, now);
  if (recheck != kNoTimer) {
    armWatchdogAt(node, recheck);
    return;
  }
  if (stop_requested_ || config_.watchdog_slices <= 0 || nodeEvicted(node)) {
    return;
  }
  if (cluster_.faults()->nodeDown(node, now)) {
    // This SR's own node is down; a later strobe receipt (short hang) or
    // rejoin re-arms the watchdog.
    return;
  }
  // No strobe for a whole timeout.
  if (node == strobe_node_) return;  // the Strobe Sender never suspects itself
  ++stats_.watchdog_fires;
  sim::traceRecord(trace_, now, sim::TraceCategory::kFailover, node, [&] {
    return "slice watchdog fired: no microstrobe for " +
           std::to_string(config_.watchdog_slices) + " slices";
  });
  if (live_compute_nodes_.empty()) return;
  if (tree_mode_) {
    // Two-level suspicion ladder: rack SSes suspect the root, plain members
    // suspect their rack SS (tree.cpp).
    onWatchdogTree(node);
    return;
  }
  if (node != live_compute_nodes_.front()) {
    // Not the election leader: keep watching.  The lowest-id live node runs
    // the claim; everyone converges on the same leader deterministically.
    armWatchdogAt(node, now + watchdogTimeout());
    return;
  }
  beginElection(node);
}

void Runtime::stopWatchdogs() {
  std::fill(ctl_.watchdog_armed.begin(), ctl_.watchdog_armed.end(), false);
  watchdog_rescan_ = true;  // a pass in progress keeps no deadline
  if (watchdog_timer_at_ != kNoTimer) {
    cluster_.engine().cancel(watchdog_timer_);
    watchdog_timer_at_ = kNoTimer;
  }
}

void Runtime::beginElection(int node) {
  if (election_inflight_) {
    armWatchdogAt(node, cluster_.engine().now() + watchdogTimeout());
    return;
  }
  election_inflight_ = true;
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
      node, [&] {
        return "suspecting Strobe Sender death; claiming epoch " +
               std::to_string(control_epoch_ + 1);
      });
  // The claim: Compare-And-Write(epoch == current, write current+1) over the
  // whole live set.  Atomic over the quorum, so concurrent claims serialize;
  // it fails while any live-set replica is unreachable or already bumped.
  core::CompareAndWriteRequest req;
  req.src_node = node;
  req.nodes = live_compute_nodes_;
  req.var = epoch_var_;
  req.op = core::CmpOp::kEQ;
  req.value = static_cast<std::int64_t>(control_epoch_);
  req.do_write = true;
  req.write_var = epoch_var_;
  req.write_value = static_cast<std::int64_t>(control_epoch_ + 1);
  core_.compareAndWriteAsync(req, [this, node](bool claimed) {
    if (!claimed) {
      sim::traceRecord(
          trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
          node, [] { return "epoch claim failed; retrying"; });
      cluster_.engine().after(config_.election_retry_interval, [this, node] {
        election_inflight_ = false;
        // Re-enter through the watchdog: if strobes resumed meanwhile (the
        // claim lost to a concurrent winner) this re-arms instead of
        // re-electing.
        onWatchdog(node);
      });
      return;
    }
    election_inflight_ = false;
    ++control_epoch_;
    ++stats_.elections;
    dropSliceTemplate();
    const int old_ss = strobe_node_;
    strobe_node_ = node;
    strobing_ = true;
    sim::traceRecord(
        trace_, cluster_.engine().now(), sim::TraceCategory::kFailover,
        node, [&] {
          return "elected backup Strobe Sender (was n" +
                 std::to_string(old_ss) + "), epoch " +
                 std::to_string(control_epoch_) + "; recovering phase seq " +
                 std::to_string(phase_seq_);
        });
    if (failover_handler_) failover_handler_(node, control_epoch_);
    recoverPhase();
  });
}

void Runtime::recoverPhase() {
  // Before strobing anew, the backup must know the interrupted microphase
  // has quiesced — every live node's in-flight NIC work for the last strobed
  // seq completed — or the per-node outstanding counters would be clobbered.
  // The phase/slice sequence number itself is already known to every SR
  // (each microstrobe carries it); the Compare-And-Write below recovers the
  // *global* completion state for it.  Nodes that can never complete (they
  // died with the old SS) leave via heartbeat eviction, which the failed-
  // over Machine Manager keeps running, so this poll cannot hang forever.
  if (stop_requested_ || live_compute_nodes_.empty()) {
    strobing_ = false;
    return;
  }
  core::CompareAndWriteRequest req;
  req.src_node = strobe_node_;
  req.nodes = live_compute_nodes_;
  req.var = phase_done_var_;
  req.op = core::CmpOp::kGE;
  req.value = static_cast<std::int64_t>(phase_seq_);
  const std::uint64_t epoch = control_epoch_;
  core_.compareAndWriteAsync(req, [this, epoch](bool done) {
    if (epoch != control_epoch_) return;
    if (done) {
      resumeStrobe();
    } else {
      cluster_.engine().after(config_.strobe_poll_interval, [this, epoch] {
        if (epoch != control_epoch_) return;
        recoverPhase();
      });
    }
  });
}

void Runtime::resumeStrobe() {
  const SimTime now = cluster_.engine().now();
  SimTime next = slice_start_ + config_.time_slice;
  if (next <= now) {
    const std::uint64_t k = static_cast<std::uint64_t>(
        (now - slice_start_) / config_.time_slice);
    next = slice_start_ + static_cast<SimTime>(k + 1) * config_.time_slice;
  }
  sim::traceRecord(
      trace_, now, sim::TraceCategory::kFailover, strobe_node_, [&] {
        return "phase quiesced; strobing resumes at " + sim::formatTime(next);
      });
  const std::uint64_t epoch = control_epoch_;
  cluster_.engine().at(next, [this, epoch] {
    if (epoch != control_epoch_) return;
    startSlice();
  });
}

void Runtime::notifyNodeRejoin(int node) {
  if (node < 0 || node >= cluster_.numComputeNodes() || !nodeEvicted(node)) {
    return;
  }
  for (int p : pending_rejoins_) {
    if (p == node) return;
  }
  pending_rejoins_.push_back(node);
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kFailover, node, [] {
        return "rejoin announced; reintegration at slice boundary";
      });
  // With the strobe stopped (job already over, or SS dead pending election)
  // there is no upcoming boundary to wait for — reintegrate immediately so
  // the node is part of whatever happens next.
  if (!strobing_) performRejoins();
}

void Runtime::performRejoins() {
  std::vector<int> back;
  back.swap(pending_rejoins_);
  const SimTime now = cluster_.engine().now();
  for (int node : back) {
    if (!nodeEvicted(node)) continue;
    evicted_[static_cast<std::size_t>(node)] = 0;
    dropSliceTemplate();
    // The node returns scrubbed: NIC queues rebuilt from scratch (its ranks
    // were force-finished at eviction and stay finished).
    nodeState(node) = NodeState{};
    ctl_.reset(node);
    live_compute_nodes_.insert(
        std::lower_bound(live_compute_nodes_.begin(),
                         live_compute_nodes_.end(), node),
        node);
    // Bring the replicated control state up to date so the node is a sound
    // quorum member for future elections and phase polls.
    core_.writeVarLocal(node, epoch_var_,
                        static_cast<std::int64_t>(control_epoch_));
    core_.writeVarLocal(node, phase_done_var_,
                        static_cast<std::int64_t>(phase_seq_));
    ++stats_.rejoins;
    sim::traceRecord(trace_, now, sim::TraceCategory::kFailover, node, [&] {
      return "rejoined at slice " + std::to_string(slice_index_) + " (epoch " +
             std::to_string(control_epoch_) + "): queues rebuilt";
    });
    ctl_.last_strobe[node] = now;
    if (!ctl_.watchdog_armed[node]) {
      armWatchdogAt(node, now + watchdogTimeout());
    }
    if (tree_mode_) treeHandleRejoin(node);
  }
}

}  // namespace bcs::bcsmpi
