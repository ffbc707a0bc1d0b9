#pragma once

// The BCS-MPI runtime system (paper §4).
//
// One Runtime instance manages the whole machine, mirroring the paper's
// process/thread architecture:
//
//   * The Strobe Sender (SS) logic runs on the management node: it opens
//     every microphase by multicasting a microstrobe (Xfer-And-Signal) to
//     the Strobe Receivers and polls for global phase completion with
//     Compare-And-Write, exactly as in Figure 5.
//   * Per compute node, the Strobe Receiver (SR) reacts to microstrobes and
//     activates the NIC threads of the new microphase: the Buffer Sender
//     (BS) and Buffer Receiver (BR) in the two global-message-scheduling
//     microphases, the DMA Helper (DH) in the point-to-point microphase,
//     the Collective Helper (CH) in the broadcast/barrier microphase and
//     the Reduce Helper (RH) in the reduce microphase.
//   * The Node Manager (NM) duties — waking blocked processes at slice
//     boundaries and (optionally) gang-scheduling between jobs — happen at
//     the DEM strobe, the start of each slice.
//
// All inter-node interaction goes through the three BCS core primitives
// (src/bcs); the runtime never touches the fabric directly except via them.
//
// Application processes interact with the runtime only by posting
// descriptors (descriptors.hpp) and blocking on request completion.

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bcs/core.hpp"
#include "bcs/window.hpp"
#include "bcsmpi/config.hpp"
#include "bcsmpi/descriptors.hpp"
#include "bcsmpi/matching.hpp"
#include "mpi/types.hpp"
#include "net/cluster.hpp"
#include "sim/event_run.hpp"
#include "sim/flat_map.hpp"
#include "sim/inline_function.hpp"
#include "sim/process.hpp"
#include "sim/slots.hpp"
#include "sim/write_back.hpp"
#include "storm/sstree.hpp"
#include "verify/verify.hpp"

namespace bcs::snapshot {
class StateIO;  // snapshot/state_io.hpp: serializes runtime internals
}

namespace bcs::bcsmpi {

using sim::Duration;
using sim::SimTime;

/// Microphases of one time slice (Figure 5).  The first two form the
/// "global message scheduling" phase, the last three "message transmission".
enum class Phase : int {
  kDem = 0,  ///< Descriptor Exchange Microphase (BS -> remote BR)
  kMsm = 1,  ///< Message Scheduling Microphase (BR matching + chunking)
  kP2p = 2,  ///< Point-to-point Microphase (DH one-sided gets)
  kBbm = 3,  ///< Broadcast & Barrier Microphase (CH)
  kRm = 4,   ///< Reduce Microphase (RH, softfloat on the NIC)
};
inline constexpr int kNumPhases = 5;

const char* phaseName(Phase p);

/// A globally consistent snapshot of the machine's communication state,
/// taken at a slice boundary (§1: "the fact that the communication state of
/// all processes is known at the beginning of every time slice facilitates
/// the implementation of checkpointing and debugging mechanisms").
///
/// At a boundary every scheduled transfer of the previous slice has
/// completed, so the global state reduces to descriptor queues plus the
/// chunk offsets of partially moved messages — no packet is in flight.
struct CheckpointRecord {
  std::uint64_t slice = 0;
  sim::SimTime time = 0;
  struct JobSnapshot {
    int job = 0;
    int ranks = 0;
    int finished_ranks = 0;
    std::uint64_t requests_posted = 0;
    std::uint64_t requests_completed = 0;
  };
  std::vector<JobSnapshot> jobs;
  struct NodeSnapshot {
    int node = 0;
    std::size_t fresh_sends = 0;       ///< posted, not yet exchanged
    std::size_t fresh_recvs = 0;
    std::size_t unmatched_remote = 0;  ///< exchanged, no matching recv yet
    std::size_t unmatched_recvs = 0;
    std::size_t partial_messages = 0;  ///< matched, mid-chunking
    std::size_t partial_bytes_moved = 0;
  };
  std::vector<NodeSnapshot> nodes;
  /// True iff no message is mid-transfer anywhere (restart from here needs
  /// no payload replay at all).
  bool quiescent = true;
};

/// Aggregate protocol counters, exposed for tests and benches.
struct RuntimeStats {
  std::uint64_t slices = 0;
  std::uint64_t microstrobes = 0;
  std::uint64_t descriptors_exchanged = 0;
  std::uint64_t matches = 0;
  std::uint64_t chunks_transferred = 0;
  std::uint64_t collectives_scheduled = 0;
  std::uint64_t slice_overruns = 0;  ///< slices whose phases ran past period
  // Fault handling (zero on a fault-free run):
  std::uint64_t retransmits = 0;      ///< descriptors/chunks re-sent after loss
  std::uint64_t requests_failed = 0;  ///< requests completed in error
  std::uint64_t evictions = 0;        ///< nodes declared dead and excluded
  std::uint64_t recovery_slices = 0;  ///< slices that opened with a recovery
  // Control-plane failover (see DESIGN.md §4c, "Control-plane failures"):
  std::uint64_t watchdog_fires = 0;   ///< slice watchdogs that expired
  std::uint64_t elections = 0;        ///< successful backup-SS promotions
  std::uint64_t rejoins = 0;          ///< evicted nodes reintegrated
  // Hierarchical control plane (BcsMpiConfig::tree_fanout, DESIGN.md §7):
  std::uint64_t tree_levels = 0;      ///< strobe fan-out levels (1 = flat)
  std::uint64_t coalesced_acks = 0;   ///< rack completions coalesced upward
  /// Control messages the root Strobe Sender touched in the last completed
  /// slice (strobe destinations + completion traffic): O(nodes) flat,
  /// O(racks) with the SS tree — the aggregation win, observable directly.
  std::uint64_t fanout_msgs_per_slice = 0;
  // Checkpoint/restore (src/snapshot, DESIGN.md §8):
  std::uint64_t checkpoints_taken = 0;  ///< periodic-policy snapshots emitted
  std::uint64_t restores = 0;           ///< times this runtime was restored
  // One-sided RMA (DESIGN.md §11):
  std::uint64_t rma_ops = 0;      ///< put/get/fetch-add operations posted
  std::uint64_t rma_batches = 0;  ///< coalesced batch descriptors exchanged

  /// Zeroes every counter (interval measurements around a workload).
  /// Prefer Runtime::resetStats, which preserves structural gauges like
  /// tree_levels across the reset.
  void reset() { *this = RuntimeStats{}; }
  bool operator==(const RuntimeStats&) const = default;
};

class Runtime {
 public:
  Runtime(net::Cluster& cluster, BcsMpiConfig config);

  net::Cluster& cluster() { return cluster_; }
  const BcsMpiConfig& config() const { return config_; }
  core::BcsCore& core() { return core_; }
  const RuntimeStats& stats() const { return stats_; }

  /// Zeroes the interval counters (slices, strobes, descriptors, ...) while
  /// preserving structural gauges — tree_levels describes the configured
  /// control plane, not accumulated work, and must survive an interval
  /// reset.
  void resetStats() {
    const std::uint64_t levels = stats_.tree_levels;
    stats_.reset();
    stats_.tree_levels = levels;
  }

  // ---- Job and process management ----

  /// Creates a job whose rank r runs on node node_of_rank[r].
  int createJob(std::vector<int> node_of_rank);

  /// Binds the process running (job, rank).  Called from the process fiber
  /// before any communication; charges the runtime bring-up overhead and
  /// starts the global strobe on first registration.
  void registerProcess(int job, int rank, sim::Process& proc);

  /// Binds (job, rank) as a *detached* rank: no process fiber, all
  /// communication driven through postSend/postRecv/testRequest from engine
  /// timers (src/snapshot's checkpointable workloads use this — fiber stacks
  /// cannot be serialized, plain state machines can).  Mirrors
  /// registerProcess: charges the bring-up overhead and starts the strobe on
  /// first registration.
  void registerDetachedRank(int job, int rank);

  /// Marks (job, rank) finished.  The strobe stops once every registered
  /// rank of every job has finished.
  void rankFinished(int job, int rank);

  int jobSize(int job) const;
  int nodeOfRank(int job, int rank) const;

  // ---- Operations invoked from application fibers ----

  std::uint64_t postSend(int job, int rank, const void* buf,
                         std::size_t bytes, int dst, int tag);
  std::uint64_t postRecv(int job, int rank, void* buf, std::size_t bytes,
                         int src, int tag);
  /// Posts a collective; the runtime assigns the per-rank generation.
  std::uint64_t postCollective(int job, int rank, CollectiveType type,
                               int root, const void* contrib, void* result,
                               std::size_t count, mpi::Datatype dt,
                               mpi::ReduceOp op);

  // ---- One-sided RMA (rma.cpp, DESIGN.md §11) ----
  //
  // Windows are registered symmetrically (every rank registers its windows
  // in the same order, like MPI_Win_create), so window id N of any target
  // rank is addressable without metadata exchange.  Ops posted in slice t
  // are exchanged in t's DEM (coalesced per destination node), applied to
  // the target window in canonical (job, origin rank, posting seq) order in
  // t's MSM — which is what makes concurrent fetch-adds resolve identically
  // on every run — and completed back at the origin so the posting
  // rank observes the result at the slice t+1 boundary: a passive-target
  // epoch per slice, no target-side code involved.

  /// Registers a window over (job, rank)'s memory; returns its window id.
  /// `base` must stay valid until every remote op targeting it completed
  /// (bound the usage with a barrier, as MPI_Win_free does).
  int createWindow(int job, int rank, void* base, std::size_t bytes);

  std::uint64_t postPut(int job, int rank, int target, int window,
                        std::size_t offset, const void* src,
                        std::size_t bytes);
  std::uint64_t postGet(int job, int rank, int target, int window,
                        std::size_t offset, void* dst, std::size_t bytes);
  /// `old_value` (optional) receives the pre-add word when the op completes.
  std::uint64_t postFetchAdd(int job, int rank, int target, int window,
                             std::size_t offset, std::int64_t delta,
                             std::int64_t* old_value);

  bool testRequest(int job, int rank, std::uint64_t req, mpi::Status* status);

  /// Non-consuming completion peek.
  bool peekRequest(int job, int rank, std::uint64_t req) const;

  /// Waits for request completion.  `spin` selects the Figure 2 semantics:
  /// false = the blocking-primitive path (process descheduled; the NM
  /// restarts it at the next slice boundary after completion); true = the
  /// MPI_Wait-on-nonblocking path (the process busy-polls the NIC flag and
  /// resumes at the completion instant).
  void waitRequest(int job, int rank, std::uint64_t req, mpi::Status* status,
                   bool spin = false);
  bool probe(int job, int rank, int src, int tag, mpi::Status* status,
             bool blocking);

  /// Index of the current time slice (also the count of DEM strobes sent).
  std::uint64_t sliceIndex() const { return slice_index_; }

  /// Send descriptors and DH gets whose recycled slot is still held
  /// (diagnostic: zero once the engine has run or dropped their callbacks).
  std::size_t messagesInFlight() const {
    return descriptors_in_flight_.inUse() + gets_in_flight_.inUse();
  }

  /// Requests a coordinated checkpoint: `cb` runs at the next slice
  /// boundary (before the DEM strobe goes out) with a globally consistent
  /// snapshot.  Multiple pending requests are all served at that boundary.
  void requestCheckpoint(std::function<void(const CheckpointRecord&)> cb);

  /// Builds a snapshot immediately — only meaningful at a slice boundary;
  /// exposed for tests.
  CheckpointRecord snapshot() const;

  /// Installs the periodic full-state snapshot sink: when
  /// `config().checkpoint_every_slices > 0`, the sink fires at every Nth
  /// slice boundary (same quiescent point requestCheckpoint callbacks use)
  /// with the boundary's slice index.  The sink typically calls
  /// snapshot::capture (src/snapshot) — capture is pure observation, so a
  /// run with the sink installed traces identically to one without.
  void setSnapshotSink(std::function<void(std::uint64_t)> sink) {
    snapshot_sink_ = std::move(sink);
  }

  // ---- Fault handling ----

  /// Declares a compute node dead (typically wired to STORM's heartbeat
  /// death handler).  The node leaves the strobe/poll sets immediately — so
  /// the microphase in flight can still complete — and the full recovery
  /// (coordinated checkpoint of the survivors, queue scrubbing, failing of
  /// requests that can no longer complete) runs at the next slice boundary.
  /// Idempotent.
  void notifyNodeFailure(int node);

  bool nodeEvicted(int node) const {
    return node >= 0 && node < static_cast<int>(evicted_.size()) &&
           evicted_[static_cast<std::size_t>(node)] != 0;
  }

  /// Coordinated checkpoints taken by recovery slices, in eviction order.
  const std::vector<CheckpointRecord>& recoveryCheckpoints() const {
    return recovery_records_;
  }

  // ---- Control-plane failover ----

  /// Node currently acting as Strobe Sender.  Initially the management
  /// node; a successful failover election moves it to a compute node.
  int strobeNode() const { return strobe_node_; }

  /// Generation counter of the Strobe Sender role, bumped by every
  /// successful election.  Replicated across live nodes in a global
  /// variable, which is what election claims Compare-And-Write against.
  std::uint64_t controlEpoch() const { return control_epoch_; }

  /// Invoked after a successful failover election with (new strobe node,
  /// new epoch).  Wire it to Storm::failoverTo so STORM's Machine Manager
  /// role (heartbeats, death declaration) moves with the Strobe Sender.
  void setFailoverHandler(std::function<void(int, std::uint64_t)> handler) {
    failover_handler_ = std::move(handler);
  }

  // ---- Protocol verification (src/verify, BcsMpiConfig::verify) ----

  /// The attached dynamic verifier, or nullptr when `config.verify` is off.
  verify::Verifier* verifier() { return verifier_.get(); }

  /// Runs the finalize audit — leaked descriptors, never-completed
  /// requests, orphaned retransmission state — and returns the report
  /// (nullptr when verification is off).  Invoked automatically when the
  /// strobe stops cleanly; call it manually after a bounded run of a
  /// deadlocked or faulted workload.  The audit runs at most once.
  const verify::VerifyReport* verifyAudit();

  /// Announces that an evicted node is back (typically wired to STORM's
  /// rejoin handler, which fires when a hung node resumes acknowledging
  /// heartbeats).  The node is scrubbed and reintegrated at the next slice
  /// boundary: fresh queues, epoch replica brought up to date, watchdog
  /// re-armed.  Ranks that were force-finished at eviction stay finished —
  /// the node returns empty, available to the strobe set and new work.
  void notifyNodeRejoin(int node);

 private:
  struct ReqInfo {
    bool complete = false;
    bool spin_waited = false;  ///< a busy-polling MPI_Wait is watching
    mpi::Status status;
  };
  struct RankState {
    sim::Process* proc = nullptr;
    int node = -1;
    bool detached = false;  ///< registered via registerDetachedRank
    bool finished = false;
    std::uint64_t next_req = 1;
    int next_coll_gen = 0;
    int next_rma_call = 0;  ///< RMA call counter (epoch-race blame sites)
    std::uint64_t requests_completed = 0;
    sim::FlatMap<std::uint64_t, ReqInfo> requests;  ///< by request id
  };
  struct JobState {
    std::vector<int> node_of_rank;
    std::vector<int> nodes;  ///< unique nodes, ascending
    std::vector<RankState> ranks;
    core::GlobalVarId coll_flag = -1;   ///< highest locally flagged gen
    core::GlobalVarId coll_sched = -1;  ///< highest globally scheduled gen
    int registered = 0;
    int finished = 0;
    bool degraded = false;  ///< lost at least one rank to a node eviction
  };

  /// A collective's payload on its way through CH/RH hops: a recycled
  /// byte buffer (sim/slots.hpp), shared by every callback that carries it.
  using Payload = sim::Slots<std::vector<std::byte>>::Ref;

  /// Per-(node, job) state of the single outstanding collective.
  struct PendingCollective {
    bool active = false;
    CollectiveType type = CollectiveType::kBarrier;
    int gen = -1;
    int root = 0;
    std::size_t count = 0;
    mpi::Datatype dt = mpi::Datatype::kByte;
    mpi::ReduceOp op = mpi::ReduceOp::kSum;
    std::vector<CollectiveDescriptor> local;  ///< descriptors of local ranks
    bool flagged = false;     ///< local flag published (all local ranks in)
    bool caw_inflight = false;  ///< master node: scheduling query running
    bool executing = false;   ///< picked up by CH/RH this slice
    // Reduce Helper state:
    int children_left = 0;
    int parent_node = -1;
    bool local_ready = false;
    std::vector<std::byte> partial;
    std::vector<Payload> queued_partials;
  };

  /// One scheduled chunk transfer (a DH get), built in the MSM.
  struct GetOp {
    int src_node = 0;
    const std::byte* src = nullptr;
    std::byte* dst = nullptr;
    std::size_t bytes = 0;
    bool final_chunk = false;
    int job = 0;
    int src_rank = 0;
    int dst_rank = 0;
    int tag = 0;
    std::size_t message_bytes = 0;
    std::uint64_t send_req = 0;
    std::uint64_t recv_req = 0;
  };

  /// Identifies an in-progress message's byte accounting entry.
  struct ProgressKey {
    int job = 0;
    int dst_rank = 0;
    std::uint64_t recv_req = 0;
    auto operator<=>(const ProgressKey&) const = default;
  };

  /// A send descriptor on its way to the destination node's BR, and a DH
  /// get on the wire: the state their Xfer-And-Signal callbacks share, in
  /// recycled slots (sim/slots.hpp) instead of a heap block per message.
  struct DescriptorInFlight {
    SendDescriptor d;
    int node = 0;      ///< sending node
    int dst_node = 0;
  };
  struct GetInFlight {
    GetOp op;
    int node = 0;  ///< the receiving node, which issued the get
  };

  /// A node's NIC queues.  They are vectors: an empty vector allocates
  /// nothing, while an empty std::deque holds a 512-byte block and its map,
  /// ≈0.6 KB of each NodeState's heap per queue, ≈1.2 MB at 2,048 nodes;
  /// and a warm vector serves every descriptor without allocating.
  struct NodeState {
    // Buffer Sender
    std::vector<SendDescriptor> bs_fresh;
    std::vector<SendDescriptor> bs_retry;  ///< lost in DEM, resent next slice
    // Buffer Receiver
    SendMatchIndex remote_sends;   ///< arrived during DEMs, by envelope
    std::vector<RecvDescriptor> recv_fresh;  ///< posted by local ranks
    RecvMatchIndex recv_eligible;  ///< visible to matching, by envelope
    std::vector<MatchDescriptor> match_queue;  ///< unscheduled remainders
    std::vector<CollectiveDescriptor> coll_fresh;
    std::map<int, PendingCollective> pending_coll;  ///< by job id
    // DMA Helper work for the current slice
    std::vector<GetOp> slice_gets;
    /// Bytes landed so far per in-progress message, keyed by
    /// (job, dst_rank, recv_req).  Under retransmission a retried earlier
    /// chunk may deliver *after* the message's final chunk, so completion is
    /// driven by byte accounting, not by the final-chunk flag.
    sim::FlatMap<ProgressKey, std::size_t> chunk_progress;
    /// MSM scratch: candidate recv seqs for this slice's matching pass
    /// (member, not local, so its capacity survives across slices).
    std::vector<std::uint64_t> match_scratch;
    // One-sided RMA (DESIGN.md §11): ops posted by local ranks await the
    // next DEM in rma_fresh; ops lost on the wire wait a slice in
    // rma_retry; ops that arrived for windows homed on this node are
    // applied by the MSM from rma_inbound; applied ops ride rma_returns
    // back to their origin node in the P2P microphase.
    std::vector<RmaOpDescriptor> rma_fresh;
    std::vector<RmaOpDescriptor> rma_retry;
    std::vector<RmaOpDescriptor> rma_inbound;
    std::vector<RmaOpDescriptor> rma_returns;
    // Node Manager
    std::vector<std::pair<int, int>> wake_list;   ///< (job, rank)
    std::vector<std::pair<int, int>> probe_waiters;
  };

  /// The nodes' control-plane state: the fields a replayed slice and the
  /// watchdog pass write, kept apart from the queues in NodeState as one
  /// contiguous array per field, indexed by compute node.  A replay's
  /// stores fill each array over runs of nodes, and the watchdog pass
  /// scans three of them, instead of touching every node's scattered
  /// NodeState.
  struct NodeControl {
    explicit NodeControl(std::size_t nodes)
        : phase_seq(nodes),
          outstanding(nodes),
          tree_floor(nodes),
          tree_drain(nodes),
          last_strobe(nodes),
          watchdog_armed(nodes),
          watchdog_at(nodes) {}
    /// Node `n`'s fields back to their initial values.
    void reset(int n) {
      phase_seq[n] = 0;
      outstanding[n] = 0;
      tree_floor[n] = tree_drain[n] = watchdog_armed[n] = false;
      last_strobe[n] = watchdog_at[n] = 0;
    }
    // Microphase completion tracking
    std::vector<std::uint64_t> phase_seq;
    std::vector<int> outstanding;
    // Tree mode (tree_fanout > 0): tokens released by rack-level events
    // rather than per-node timers.  `tree_floor` marks the phase-floor token
    // the rack's shared floor event releases; `tree_drain` marks the DEM
    // FIFO-drain token the rack's shared drain event releases.
    std::vector<char> tree_floor;
    std::vector<char> tree_drain;
    // Slice watchdog (Strobe Receiver side of control-plane failover).  The
    // runtime's one watchdog timer runs it once watchdog_at is due.
    std::vector<SimTime> last_strobe;
    std::vector<char> watchdog_armed;
    std::vector<SimTime> watchdog_at;  ///< when the armed watchdog runs
  };

  /// Per-rack strobe-protocol state (tree mode).  Role/membership live in
  /// storm::SsTree (sstree_); this is the in-flight microphase bookkeeping
  /// the rack SS keeps alongside.
  struct TreeRackState {
    std::uint64_t seq = 0;        ///< newest microphase relayed to members
    std::uint64_t acked_seq = 0;  ///< newest microphase acked to the root
    int pending = 0;              ///< members still busy with `seq`
  };

  /// What varies in the rest of one normally simulated slice, from the
  /// microstrobe of its starting microphase at instant T to its RM
  /// completion (DESIGN.md §5b, "Idle-suffix replay"); a replay derives
  /// every other end.  Replaying it at a later microstrobe of the same
  /// microphase, with every live node idle for the rest of that slice,
  /// under the same control plane, reproduces that suffix exactly.  The
  /// DEM's template is a whole slice's.
  struct SliceTemplate {
    /// Live nodes first..first+count-1, which last heard a strobe at one
    /// offset from T, as the members of a rack do.
    struct NodeRun {
      int first = 0;
      int count = 0;
      Duration last_strobe = 0;
    };
    /// Holds a recording for the current control plane.  A template that
    /// is dropped keeps its buffers' capacity for the next recording.
    bool recorded = false;
    Duration rm_offset = 0;    ///< RM completion, after T
    std::uint64_t phases = 0;  ///< phase_seq_ advance
    /// Counter deltas.  Not the overrun, which a replay derives from its
    /// own slice's start, as phaseComplete does.
    RuntimeStats stats;
    std::uint64_t root_msgs = 0;  ///< root_msgs_slice_ advance
    net::FabricStats fabric;
    std::vector<NodeRun> nodes;  ///< ascending, covering the live nodes
  };
  /// The counters at T of a suffix being recorded: the slice's end minus
  /// this is the template of microphase `from`.
  struct SliceRecording {
    bool active = false;
    Phase from = Phase::kDem;
    SimTime start = 0;
    SimTime next_event = 0;  ///< earliest pending engine event at T
    std::size_t pending = 0;  ///< pending engine events at T
    std::uint64_t phase_seq = 0;
    std::uint64_t root_msgs = 0;
    RuntimeStats stats;
    net::FabricStats fabric;
  };
  /// A replayed suffix's stores to the control arrays, waiting in ctl_ for
  /// their first reader (DESIGN.md §5b, "Write-back"): over the template's
  /// node runs, the slice's last sequence number `seq`, no token held, and
  /// the last strobe set from T (`start`).  Every template of one control
  /// plane sets every field of every live node, so the next replay, under
  /// any template, replaces this one; dropSliceTemplate lands it first.
  struct ControlStore {
    const SliceTemplate* t = nullptr;
    std::uint64_t seq = 0;
    SimTime start = 0;
    void operator()(NodeControl& c) const;
  };

  // ---- Strobe Sender (management node) ----
  void startSlice();
  /// The boundary bookkeeping that opens a slice, then its DEM strobe: the
  /// tail of startSlice and of resumeFromRestore.
  void openSlice();
  void strobePhase(Phase p);
  void pollPhaseDone(Phase p, std::uint64_t seq);
  /// The phase-done poll of `seq`, in poll_request_.
  const core::CompareAndWriteRequest& pollRequest(std::uint64_t seq);
  /// After a failed round: the next one, counting the rounds that cannot
  /// see anything change (DESIGN.md §5b, "The flat Strobe Sender loop").
  void repoll(Phase p, std::uint64_t seq);
  void phaseComplete(Phase p);
  /// The first slice boundary on the period grid after `now`.
  SimTime nextBoundary(SimTime now) const;
  /// Files the next slice's start, fenced by the current control epoch.
  void scheduleStartSlice(SimTime at);
  void maybeStop();

  // Idle-suffix replay (runtime.cpp, DESIGN.md §5b)
  /// At the microstrobe of `p`, before its sequence number is drawn, in a
  /// slice that has not started recording: replays the rest of the slice
  /// from p's template, files the next startSlice and returns true, or
  /// starts recording p's template.  From the DEM it replays the whole
  /// slice.
  bool replaySuffix(Phase p);
  /// Every live node's watchdog is armed (or watchdogs are off) and every
  /// live node is idle in `p` and every later microphase; stops at the
  /// first node that is not.  At the DEM after a replayed slice, whole or
  /// in part, the walk is skipped while work_epoch_ still equals the value
  /// the last whole-slice walk admitted.
  bool suffixIdle(Phase p, bool after_replay);
  /// A live node or the Strobe Sender is down somewhere in [from, to].
  bool controlPlaneDownDuring(SimTime from, SimTime to) const;
  void startRecording(Phase p, SimTime next_event);
  /// At RM completion, before the overrun and the next start are derived.
  void finishRecording();
  /// Evictions, rejoins and elections change the control plane the
  /// templates were recorded under.  The pending stores point into one,
  /// so they land first.
  void dropSliceTemplate() {
    ctl_.settle();
    for (SliceTemplate& t : templates_) t.recorded = false;
    recording_.active = false;
    slice_replayed_ = false;
  }
  /// Marks a change the quiescence walk must see: NIC work queued outside a
  /// simulated slice, or a live node's watchdog left disarmed.
  void noteWork() { ++work_epoch_; }

  // ---- Strobe Receiver / NIC threads (compute nodes) ----
  void onStrobe(int node, Phase p, std::uint64_t seq);
  /// A strobe (or the bring-up that stands for one) reached `node` at `at`:
  /// feeds its slice watchdog, arming it if it is not.
  void hearStrobe(int node, SimTime at);
  /// Node `node`'s NIC-thread work in microphase `p` (phases.cpp), for both
  /// control planes: flat onStrobe and the tree's rackFanout call it.
  /// Returns how long the node's floor token is held.
  Duration runPhase(int node, Phase p, std::uint64_t seq);
  /// Enters microphase `seq` and takes the floor token, held `busy`: flat
  /// mode files the node's own timer, the tree marks it for the rack's
  /// shared floor event.
  void beginNodePhase(int node, std::uint64_t seq, Duration busy);
  void opStarted(int node);
  void opFinished(int node);
  void drainDescriptorFifos(int node);

  // One-sided RMA (rma.cpp): DEM coalesced exchange, MSM canonical apply,
  // P2P completion returns.
  void drainRmaFifos(int node);
  void scheduleRmaOps(int node, Duration& cost);
  void applyRmaOp(int node, const RmaOpDescriptor& op);
  void runRmaReturns(int node);
  static std::uint64_t windowOwnerKey(int job, int rank) {
    return (static_cast<std::uint64_t>(job) << 20) |
           static_cast<std::uint64_t>(rank);
  }

  // BR helpers
  int preprocessCollectivesCount(int node);
  void matchDescriptors(int node, Duration& cost);
  void scheduleChunks(int node);
  void scheduleCollectiveQueries(int node);
  /// Issues the DH gets queued on the node for one P2P microphase (shared
  /// by the flat and tree strobe paths).
  void issueGets(int node);
  /// CH/RM pickup: marks schedulable collectives of the requested kind
  /// (reduce_phase selects RM's reduce/allreduce vs BBM's bcast/barrier)
  /// executing and returns how many were picked up.
  int collectReadyCollectives(int node, bool reduce_phase,
                              std::vector<int>& ready_jobs);

  // Hierarchical control plane (tree.cpp; active iff tree_fanout > 0).
  void strobePhaseTree(Phase p, std::uint64_t seq);
  void onRackStrobe(int rack, Phase p, std::uint64_t seq);
  void rackFanout(int rack, Phase p, std::uint64_t seq);
  /// True iff microphase `p` has nothing to do on the node: no Node Manager
  /// duty, nothing to drain, match, get or execute.  The tree skips such a
  /// member's tokens; the rest of a slice in which every live node is idle
  /// can be replayed.
  bool nodeIdle(const NodeState& ns, Phase p) const;
  void treeReleaseFloor(int rack, std::uint64_t seq);
  void treeDrain(int rack, std::uint64_t seq);
  void treeMemberDone(int node);
  void sendRackAck(int rack, std::uint64_t seq);
  void onRackAck(int rack, std::uint64_t seq);
  void maybeTreePhaseDone();
  void treeRecover();
  void onWatchdogTree(int node);
  void beginTreeElection(int node);
  void treeHandleEviction(int node);
  void treeHandleRejoin(int node);
  void treeAudit(verify::Verifier& v, SimTime now);

  // CH / RH helpers (collectives.cpp)
  /// A payload holding a copy of [data, data + bytes).
  Payload copyPayload(const std::byte* data, std::size_t bytes);
  void executeBroadcast(int node, int job);
  void executeReduce(int node, int job);
  void reduceIncoming(int node, int job, Payload data);
  void reduceApply(int node, int job, Payload data);
  void reduceAdvance(int node, int job);
  void reduceSendUp(int node, int job);
  void reduceDeliverResult(int node, int job);
  void finishCollectiveOnNode(int node, int job, Payload payload);
  int collectiveOwnerNode(const JobState& js,
                          const PendingCollective& pc) const;

  // Posting and completion plumbing
  /// What every post does before it builds its descriptor: charges the
  /// post overhead to the rank's fiber, then opens a request and notes the
  /// work.
  struct Posting {
    RankState& rs;
    std::uint64_t req;
    SimTime at;  ///< the posting instant
  };
  Posting beginPost(int job, int rank);
  /// A peer rank outside the job fails: "<op>: bad <role> rank N".
  void checkRank(int job, int rank, const char* op, const char* role) const;
  /// Deschedules the rank's fiber until it is woken.  A detached rank has
  /// none and polls with testRequest, so a blocking `op` fails for it.
  static void blockRank(const RankState& rs, int rank, const char* op);
  /// Posts an RMA op built by postPut, postGet or postFetchAdd (`what`,
  /// named in the bad-target error).
  std::uint64_t postRma(const char* what, RmaOpDescriptor d);
  ReqInfo& reqInfo(int job, int rank, std::uint64_t req);
  /// Completes a request and wakes its rank: a spin-waiter at once, any
  /// other at the next slice boundary.  An `error` completion is counted
  /// and traced.  Idempotent; never wakes ranks living on evicted nodes.
  void completeRequest(int job, int rank, std::uint64_t req, int peer,
                       int tag, std::size_t bytes, int error = mpi::kSuccess);
  /// Completes a request *in error* (peer unreachable).
  void failRequest(int job, int rank, std::uint64_t req, int peer, int tag) {
    completeRequest(job, rank, req, peer, tag, 0, mpi::kErrPeerUnreachable);
  }
  void wakeAtSliceStart(int node);

  // Fault recovery (runtime.cpp)
  void performRecovery();
  void evictNodeState(int node);

  // Protocol verification (runtime.cpp): the queue/request walk behind
  // verifyAudit().
  void runVerifyAudit();

  // Control-plane failover (runtime.cpp)
  Duration watchdogTimeout() const {
    return static_cast<Duration>(config_.watchdog_slices) * config_.time_slice;
  }
  void armWatchdogAt(int node, SimTime when);
  /// Where a watchdog that heard a strobe since it was armed checks again:
  /// the last slice boundary at or before `deadline`, or the deadline
  /// itself when that boundary is not after now.
  SimTime watchdogRecheckAt(SimTime deadline, SimTime now) const;
  /// A due watchdog's usual outcome: its node is live and up and heard a
  /// strobe since the watchdog was armed, so it checks again at the slice
  /// boundary before the deadline, where the timer fires ahead of that
  /// boundary's startSlice instead of inside a slice; the last step of the
  /// chain lands on the deadline itself.  Always after now; kNoTimer when
  /// onWatchdog must disarm the watchdog, suspect the Strobe Sender or
  /// elect.  For nodes first..end-1 that heard the same last strobe, as a
  /// rack's members or a flat machine's nodes do: one outcome for the run,
  /// kNoTimer if it is not every node's.
  SimTime watchdogRecheck(int first, int end, SimTime now) const;
  /// The watchdog timer's event: runs every due node's watchdog in
  /// ascending node order, one re-check per run of due nodes with one
  /// deadline, then re-files itself at the earliest deadline.
  void runDueWatchdogs();
  void scheduleWatchdogTimer(SimTime at);
  void onWatchdog(int node);
  void stopWatchdogs();
  void beginElection(int node);
  /// Claims control epoch control_epoch_ + 1 for `node`, unless a claim is
  /// in flight: a Compare-And-Write over the live set, traced as suspecting
  /// the death of `suspect`.  A failed claim retries through onWatchdog; a
  /// won one counts the election, drops the slice template and runs `won`.
  void claimEpoch(int node, const char* suspect,
                  sim::InlineFunction<void()> won);
  void recoverPhase();
  void resumeStrobe();
  void performRejoins();

  /// Runs the post-capture tail of startSlice() after a snapshot restore:
  /// the restored state corresponds exactly to the capture point (after
  /// recovery/rejoins, before the boundary bookkeeping), so this picks the
  /// slice up from there.  Invoked only by snapshot::StateIO via the
  /// restore-resume event.
  void resumeFromRestore();

  RankState& rankState(int job, int rank);
  JobState& jobState(int job);
  NodeState& nodeState(int node);

  net::Cluster& cluster_;
  BcsMpiConfig config_;
  core::BcsCore core_;
  sim::Trace* trace_;

  /// Per-node NIC-thread timers, filed by node range (sim/event_run.hpp):
  /// one engine event releases a microphase instant's run of consecutive
  /// nodes.  Completions release an opFinished token, drains run the DEM
  /// descriptor-FIFO read a window after the strobe.
  sim::EventRun<int> op_timers_;
  sim::EventRun<int> dem_drains_;
  /// The phase-done poll's request, reused round after round.
  core::CompareAndWriteRequest poll_request_;
  /// A P2P microphase's gets and RMA returns, swapped with the node's
  /// queue so neither reserves anew every phase; a DEM's send descriptors.
  std::vector<GetOp> gets_scratch_;
  std::vector<RmaOpDescriptor> returns_scratch_;
  std::vector<SendDescriptor> exchange_scratch_;
  /// Descriptors and gets on the wire (see DescriptorInFlight).
  sim::Slots<DescriptorInFlight> descriptors_in_flight_;
  sim::Slots<GetInFlight> gets_in_flight_;

  /// One-sided RMA window table, keyed by windowOwnerKey(job, rank).
  core::WindowRegistry windows_;

  std::vector<JobState> jobs_;
  std::vector<NodeState> nodes_;
  /// Reached only through the write-back's accessors, which land a
  /// replayed slice's pending stores first (sim/write_back.hpp).
  sim::WriteBack<NodeControl, ControlStore> ctl_;
  std::vector<int> all_compute_nodes_;
  std::vector<int> live_compute_nodes_;  ///< strobe/poll set, minus evictions
  std::vector<char> evicted_;            ///< per compute node
  std::vector<int> pending_evictions_;   ///< recovered at next slice boundary
  std::vector<CheckpointRecord> recovery_records_;

  core::GlobalVarId phase_done_var_ = -1;
  /// Replicated Strobe-Sender epoch: every live node holds a copy; a backup
  /// claims the role by Compare-And-Write(== epoch, write epoch+1) over the
  /// live set, which serializes concurrent claims.
  core::GlobalVarId epoch_var_ = -1;
  core::GlobalEventId strobe_event_ = -1;
  /// Local completion event used by CH/RH multicasts (one signal per op).
  core::GlobalEventId coll_done_event_ = -1;

  int strobe_node_ = -1;
  std::uint64_t control_epoch_ = 0;
  bool election_inflight_ = false;
  std::vector<int> pending_rejoins_;  ///< reintegrated at next slice boundary
  std::function<void(int, std::uint64_t)> failover_handler_;

  /// The slice watchdogs' one engine event (DESIGN.md §4c), pending at
  /// watchdog_timer_at_; kNoTimer when none is.  While runDueWatchdogs is
  /// running, re-arms only update their node and the timer is re-filed at
  /// the end, at the earliest deadline its pass saw.  The pass is at node
  /// watchdog_cursor_; a re-arm behind it, or a stop, makes the pass
  /// rescan for that deadline.
  static constexpr SimTime kNoTimer = INT64_MAX;
  sim::EventId watchdog_timer_{};
  SimTime watchdog_timer_at_ = kNoTimer;
  bool running_watchdogs_ = false;
  bool watchdog_rescan_ = false;
  int watchdog_cursor_ = 0;

  bool strobing_ = false;
  bool stop_requested_ = false;
  std::uint64_t slice_index_ = 0;
  SimTime slice_start_ = 0;
  std::uint64_t phase_seq_ = 0;
  std::uint64_t desc_seq_ = 0;
  int active_ranks_ = 0;

  // Hierarchical control plane (DESIGN.md §7).
  bool tree_mode_ = false;             ///< config_.tree_fanout > 0, cached
  storm::SsTree sstree_;               ///< rack membership + SS roles
  std::vector<TreeRackState> tree_racks_;
  /// Destination sets of the root's strobe and of a rack relay, rebuilt
  /// in place for each (the transfer reads them during the call only).
  std::vector<int> strobe_dests_;
  std::vector<int> relay_dests_;
  Phase tree_phase_ = Phase::kDem;     ///< microphase currently in flight
  /// True while a tree microphase is collecting rack acks.  Guards
  /// maybeTreePhaseDone against double-advancing when an eviction (or a
  /// duplicate ack) lands between phases.
  bool tree_phase_open_ = false;
  /// A promoted root is re-collecting acks for the interrupted microphase;
  /// once they all arrive the slice is abandoned and the strobe resumes on
  /// the period grid (mirroring the flat recoverPhase semantics).
  bool tree_recovering_ = false;
  /// Control messages the root touched since the slice started (both
  /// modes); snapshotted into stats_.fanout_msgs_per_slice at slice end.
  std::uint64_t root_msgs_slice_ = 0;

  /// Idle-suffix replay: the suffix recording a template (templates_,
  /// below).  Neither is part of a snapshot.
  SliceRecording recording_;
  /// The slice that started last was replayed, whole or in part.
  bool slice_replayed_ = false;
  /// Bumped by noteWork(); idle_epoch_ is its value at the last node walk
  /// that found every live node idle in all five microphases and armed.
  std::uint64_t work_epoch_ = 0;
  std::uint64_t idle_epoch_ = 0;

  std::vector<std::function<void(const CheckpointRecord&)>> checkpoint_cbs_;

  /// Periodic full-state snapshot sink (setSnapshotSink); fires at every
  /// `config_.checkpoint_every_slices`-th boundary when installed.
  std::function<void(std::uint64_t)> snapshot_sink_;

  /// Collective payload buffers, recycled with their capacity.
  sim::Slots<std::vector<std::byte>> payloads_;

  /// Dynamic protocol verifier; null unless config_.verify.  Hot-path hooks
  /// are guarded by this pointer (one predictable branch when off — never a
  /// virtual call), which is what keeps the disabled verifier zero-cost.
  std::unique_ptr<verify::Verifier> verifier_;

  RuntimeStats stats_;

  /// One idle-suffix template per starting microphase for the current
  /// control plane.  Declared last: declared among the members a replayed
  /// slice reads, the five templates spread those over more cache lines
  /// and made a replayed whole slice ≈8 % slower.
  std::array<SliceTemplate, kNumPhases> templates_;

  /// Snapshot serializer (src/snapshot/state_io.*): reads and rebuilds the
  /// private state above at slice boundaries.  Friendship instead of a
  /// public state API keeps the snapshot surface out of the runtime's
  /// contract — the serializer versions with the repo, not with callers.
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::bcsmpi
