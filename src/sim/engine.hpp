#pragma once

// The discrete-event engine at the heart of bcssim.
//
// Design notes
// ------------
//  * Single logical thread of control.  Event callbacks run to completion;
//    when a callback resumes a fiber (see fiber.hpp) the engine thread blocks
//    until that fiber yields again, so at any instant exactly one piece of
//    model code is running.  This gives sequential consistency and bitwise
//    reproducibility on any host, including the 1-core build machines.
//  * Ties are broken by insertion order (a monotonically increasing sequence
//    number), never by pointer values, so runs are deterministic.
//  * The pending set is a two-level calendar queue: near-future events live
//    in a wheel of fixed-width buckets indexed by (when >> kBucketShift);
//    events beyond the wheel horizon (~524 us, just over one default time
//    slice) go to an overflow heap and are compared against the wheel
//    cursor on every pop — watchdogs, compute completions and retransmit
//    timers live there.  Buckets are plain vectors: enqueue is push_back,
//    and the bucket is sorted by (when, key) exactly once, when the cursor
//    first reaches it, after which draining is pop_back.  Late arrivals
//    into the already-sorted current bucket (a callback scheduling within
//    the same ~2 us window) use a sorted insert.
//  * Event nodes are pooled and reused; the callback lives in a
//    small-buffer-optimized slot inside the node, so the common
//    at/after/cancel/run cycle performs zero heap allocations for callables
//    up to EventCallback::kInlineBytes (sim/inline_function.hpp).
//  * Cancellation is O(1): an EventId carries the node's generation, cancel
//    disarms the node (and frees its callback) in place, and the disarmed
//    entry is dropped lazily when the queue walk reaches it (see
//    droppedTombstones()).
//  * Same-instant runs (sim/event_run.hpp): consecutive EventRun members
//    for one instant share one node and one queue entry when no other
//    event was filed under that bucket in between, which proves nothing
//    can fire between them.  Each member still draws its own key, counts
//    as its own pending and executed event and runs under its own
//    currentEventKey(), so a run is invisible to everything but the queue.
//
// Parallel slice execution
// ------------------------
//  Every event belongs to a shard (default: shard 0, inherited from the
//  event that scheduled it).  The canonical execution order is
//
//      (when, shard, band, seq)
//
//  packed into a single 64-bit key: 16 bits of shard, one "handoff band"
//  bit, and a 47-bit per-shard sequence number.  The classic run() pops in
//  exactly that order; run(ParallelPolicy) drains each shard on a worker
//  pool up to the next global barrier (a slice/microphase boundary) and
//  merges cross-shard effects at the barrier in the same order — so traces,
//  stats and RNG streams are byte-identical between the two modes.  Shards
//  may only interact through handoff(), which targets a time at or past the
//  next barrier (the conservative-window lookahead the BCS time slice makes
//  explicit).  The serial path is the reference implementation; the
//  parallel mode is opt-in per run() call.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace bcs::snapshot {
class StateIO;  // snapshot/state_io.hpp: serializes engine counters
}

namespace bcs::sim {

/// Shard index: the unit of parallelism.  Shard 0 is the default home of
/// all events (and of the whole BCS control plane); workloads opt into
/// parallelism by placing per-node event chains on per-node shards.
using ShardId = std::uint16_t;

/// Opt-in parallel execution mode for Engine::run.  Barriers default to the
/// multiples of `window` (the BCS time-slice grid); `next_barrier`, when
/// set, overrides that with an arbitrary monotone schedule (e.g. microphase
/// boundaries from the strobe program) and must return a time strictly
/// greater than its argument.
struct ParallelPolicy {
  int threads = 2;
  Duration window = usec(500);

  /// Barrier coarsening on the default grid: merge points land on multiples
  /// of `window * windows_per_barrier`.  Legal only when the workload's
  /// cross-shard lookahead covers the coarser grid (Engine::handoff targets
  /// must land at or past the *next barrier*, which is now further out);
  /// violations fail loudly, so widening this is always safe to try.
  /// Ignored when `next_barrier` is set.
  int windows_per_barrier = 1;

  /// Caps the worker-thread count at the host's hardware concurrency (and
  /// at the shard count — surplus workers own no shards).  Results are
  /// byte-identical either way; oversubscribing a compute-bound drain past
  /// the physical cores only adds context-switch thrash, so production
  /// runs leave this on.  The conformance/stress tests turn it off to
  /// exercise real thread pools regardless of the host.
  bool clamp_to_hardware = true;

  std::function<SimTime(SimTime)> next_barrier;
};

namespace detail {

struct ExecContext;  // per-worker window state; defined in engine.cpp

/// Commit thunk for a trace record deferred during a parallel window (the
/// engine cannot name sim::Trace: the -fno-exceptions bench smoke compiles
/// engine.cpp standalone, so the coupling is a function pointer supplied by
/// trace.cpp).
using TraceCommitFn = void (*)(void* trace, SimTime t, std::uint8_t category,
                               int node, std::string&& message);

/// Defers a trace record into the executing worker's buffer.  Returns false
/// when no parallel window is active on this thread (the caller appends
/// directly, as in serial mode).
bool deferTraceRecord(void* trace, TraceCommitFn commit, SimTime t,
                      std::uint8_t category, int node, std::string&& message);

/// Index of the worker executing the current parallel window on this
/// thread, or -1 outside a window.  Lets shared observers (e.g. Fabric
/// statistics) stripe their state per worker instead of contending on one
/// cache line.
int currentWorkerIndex();

}  // namespace detail

/// Handle to a scheduled event; usable to cancel it before it fires.  The
/// generation check makes stale handles (already fired, cancelled, or whose
/// pooled node was reused) fail cancel() harmlessly.
struct EventId {
  std::uint32_t slot = 0;  ///< 1-based pool slot; 0 = never scheduled
  std::uint32_t gen = 0;
  bool valid() const { return slot != 0; }
};

/// Thrown when the simulation reaches a state it cannot make progress from
/// (e.g. every process blocked and no event pending) if the harness asked for
/// deadlock detection, or on internal invariant violations.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// Reports a fatal simulation error.  Throws SimError where exceptions are
/// available; prints and aborts under -fno-exceptions, so the sim layer stays
/// usable in exception-free benchmark builds.
[[noreturn]] void simFail(const std::string& what);

/// An engine event's callback.  The slot is sized so a whole event node
/// fits in one 64-byte cache line; scheduling an EventCallback moves it into
/// the node instead of wrapping it.
using EventCallback = InlineFunction<void()>;

/// Pure observer of shard-contract-relevant execution points, attached via
/// Engine::setShardObserver (the shard-ownership race detector in src/race
/// is the one implementation).  The engine guarantees:
///   * onSerialCrossShard fires only in *serial* mode, when an executing
///     event schedules onto or cancels an event of another shard — the
///     operations the parallel mode rejects loudly but the serial engine
///     has always allowed silently;
///   * onBarrier fires on the coordinating thread after a parallel window
///     merge, with every worker quiesced and all deferred effects
///     committed — the one point where cross-worker state may be read.
/// Observers must not schedule, cancel or otherwise mutate engine state.
class ShardAccessObserver {
 public:
  virtual ~ShardAccessObserver() = default;
  /// `target` is the foreign shard; `what` a static call-site label
  /// ("Engine::atOn" / "Engine::cancel").
  virtual void onSerialCrossShard(ShardId target, const char* what) = 0;
  /// `boundary` is the merged window's end time (the barrier grid point).
  virtual void onBarrier(SimTime boundary) = 0;
};

/// The event engine.  Owns the clock and the pending-event queue.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.  Inside a parallel window this is the firing
  /// time of the event executing on the calling worker.
  SimTime now() const { return par_active_ ? nowParallel() : now_; }

  /// Schedules `fn` to run at absolute time `when` (must be >= now()) on
  /// the current shard: the shard of the executing event, or shard 0
  /// outside event context.  All pre-existing code therefore stays on
  /// shard 0 with behaviour identical to the pre-shard engine.
  template <typename Fn>
  EventId at(SimTime when, Fn&& fn) {
    const Prep p = beginSchedule(when);
    Node& n = node(p.slot);
    n.armed = true;
    n.shard = p.shard;
    n.fn.emplace(std::forward<Fn>(fn));
    return finishSchedule(p, when);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  template <typename Fn>
  EventId after(Duration delay, Fn&& fn) {
    if (delay < 0) failNegativeDelay();
    return at(now() + delay, std::forward<Fn>(fn));
  }

  /// Schedules onto an explicit shard.  Outside a parallel window any shard
  /// is valid (setup-time placement of per-node event chains); inside a
  /// window it must name the executing shard — cross-shard scheduling goes
  /// through handoff().
  template <typename Fn>
  EventId atOn(ShardId shard, SimTime when, Fn&& fn) {
    const Prep p = beginScheduleOn(shard, when);
    Node& n = node(p.slot);
    n.armed = true;
    n.shard = p.shard;
    n.fn.emplace(std::forward<Fn>(fn));
    return finishSchedule(p, when);
  }

  /// Cross-shard scheduling.  During a parallel window the event is staged
  /// and applied at the next barrier, so `when` must be at or past that
  /// barrier (the slice-synchronous lookahead contract; violations fail
  /// loudly).  In serial mode it enqueues immediately with the same
  /// ordering key, which is what keeps the two modes byte-identical:
  /// handoffs order after all shard-native events at equal (when, shard)
  /// in both modes.  Handoffs are not cancellable (no EventId).
  template <typename Fn>
  void handoff(ShardId shard, SimTime when, Fn&& fn) {
    EventCallback cb;
    cb.emplace(std::forward<Fn>(fn));
    handoffImpl(shard, when, std::move(cb));
  }

  /// Cancels a pending event in O(1).  Returns true if the event was still
  /// pending; the queued entry becomes a tombstone dropped lazily.  During
  /// a parallel window only same-shard events may be cancelled.
  bool cancel(EventId id);

  /// Runs until the queue drains or `until` is reached (whichever first).
  /// Returns the time of the last processed event.
  SimTime run(SimTime until = INT64_MAX);

  /// Runs the same simulation on a worker pool: per-shard queues drain
  /// concurrently up to each global barrier, then cross-shard effects merge
  /// in canonical (when, shard, band, seq) order.  Byte-identical to the
  /// serial run() for workloads honouring the shard contract (shards
  /// interact only via handoff()).  The calling thread doubles as worker 0,
  /// so fibers (all shard 0) always execute on the caller's thread.
  SimTime run(const ParallelPolicy& policy, SimTime until = INT64_MAX);

  /// Runs exactly one queue entry if available: one event, or one whole
  /// EventRun (all its members for that instant).  Returns false if the
  /// queue is empty.  Useful for fine-grained unit tests of the engine.
  bool step();

  /// Number of live (scheduled, not cancelled, not yet fired) events.
  std::size_t pendingEvents() const { return live_; }

  /// Total number of events executed since construction.
  std::uint64_t executedEvents() const { return executed_; }

  /// Cancelled entries physically reclaimed from the queue so far; together
  /// with cancelledEvents() this makes cancellation overhead observable.
  /// Reclamation timing is a queue-internal detail and is the one counter
  /// *not* covered by the serial≡parallel identity guarantee.
  std::uint64_t droppedTombstones() const { return dropped_tombstones_; }

  /// Event-node pool slots handed out since construction (high-water mark,
  /// never shrinks).  A stable value across repeated runs of the same
  /// workload proves the per-worker arenas recycle nodes instead of
  /// growing the pool; see the arena tests in test_sim.cpp.
  std::uint32_t poolSlots() const {
    return node_count_.load(std::memory_order_relaxed);
  }

  /// Total successful cancel() calls since construction.
  std::uint64_t cancelledEvents() const { return cancelled_; }

  /// Zeroes the cumulative counters (executed / cancelled / reclaimed
  /// tombstones) for interval measurements.  The live-event count is queue
  /// occupancy, not a statistic, and is left alone.
  void resetStats() {
    executed_ = 0;
    cancelled_ = 0;
    dropped_tombstones_ = 0;
  }

  /// Attaches (or detaches, with nullptr) a shard-access observer.  At most
  /// one; the caller keeps ownership and must outlive the engine or detach
  /// first.
  void setShardObserver(ShardAccessObserver* obs) { observer_ = obs; }
  ShardAccessObserver* shardObserver() const { return observer_; }

  /// Shard of the event executing on the calling thread (serial or
  /// parallel); 0 outside event execution.
  ShardId currentShard() const;

  /// Canonical ordering key of the event executing on the calling thread —
  /// (shard | handoff band | seq), identical between serial and parallel
  /// runs of the same workload — or 0 outside event execution (per-shard
  /// sequences start at 1, so no real event has key 0).  This is the
  /// provenance anchor the race detector stamps on every recorded access.
  std::uint64_t currentEventKey() const;

 private:
  template <typename Arg>
  friend class EventRun;

  /// Pooled event node.  The ordering key (when, key) lives only in the
  /// queue entry; the node carries just the callback and handle state, so a
  /// node is exactly one cache line.  Nodes live in fixed-size chunks whose
  /// addresses never move, which lets run() invoke a callback in place (no
  /// per-event move-out) while the callback freely schedules more events.
  struct Node {
    EventCallback fn;
    std::uint32_t gen = 0;
    ShardId shard = 0;
    bool armed = false;
  };
  static_assert(sizeof(Node) <= 64, "event node should stay one cache line");

  static constexpr std::uint32_t kChunkShift = 10;  // 1024 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  /// Upper bound on pool chunks (4M nodes).  chunks_ reserves this up
  /// front so its data pointer never moves: workers index into it while
  /// another worker appends a chunk under chunk_mu_.
  static constexpr std::size_t kMaxChunks = 4096;

  // 2^11 ns (~2 us) buckets; 256 of them give a 524,288 ns horizon, just
  // over one default 500 us time slice.  Anything further lands in the
  // overflow heap.  Narrow buckets keep per-bucket sorts small (the sort is
  // the dominant drain cost); the horizon only has to cover the densely
  // populated near future — one slice of strobes, legs and completions —
  // since far-future timers are cheap in the overflow heap.  Bucket vectors
  // keep their peak capacity, so the wheel's footprint is buckets × peak
  // occupancy, and all of it passes through the cache once per lap: a
  // short lap keeps it resident.
  static constexpr int kBucketShift = 11;
  static constexpr std::uint64_t kNumBuckets = 256;
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;

  /// Queue entry: the ordering key is carried alongside the slot index so
  /// sorting and heap sifts stay inside the (hot, contiguous) queue arrays
  /// and never chase into the node pool.  `key` packs
  /// (shard, handoff band, per-shard seq) — see the header comment — so a
  /// single integer compare realizes the canonical total order; shard-0
  /// native events have key == seq, the pre-shard ordering.
  struct QEntry {
    SimTime when;
    std::uint64_t key;
    std::uint32_t slot;
    bool firesBefore(const QEntry& o) const {
      return when != o.when ? when < o.when : key < o.key;
    }
  };

  struct Prep {
    std::uint32_t slot;
    detail::ExecContext* ctx;  ///< non-null inside a parallel window
    ShardId shard;
  };

  [[noreturn]] void failSchedulePast(SimTime when, SimTime now) const;
  [[noreturn]] static void failNegativeDelay();

  Node& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  std::uint32_t acquireNode();
  std::uint32_t acquireNodeCtx(detail::ExecContext& ctx);
  void releaseNode(std::uint32_t slot);
  Prep beginSchedule(SimTime when);
  Prep beginScheduleOn(ShardId shard, SimTime when);
  EventId finishSchedule(const Prep& p, SimTime when);
  void handoffImpl(ShardId shard, SimTime when, EventCallback cb);
  SimTime nowParallel() const;
  void enqueue(QEntry entry);
  /// Locates the earliest live event without removing it, dropping any
  /// tombstones in the way.  Returns false when no live event remains.
  bool peekNext(QEntry& entry, bool& from_overflow);
  void extract(bool from_overflow);
  void fire(const QEntry& entry);
  static void heapPush(std::vector<QEntry>& heap, QEntry entry);
  static void heapPop(std::vector<QEntry>& heap);
  /// Absolute bucket an event at `when` is filed under: its own, or the
  /// cursor's if the cursor has already passed it.
  std::uint64_t bucketIndex(SimTime when) const {
    const std::uint64_t idx = static_cast<std::uint64_t>(when) >> kBucketShift;
    return idx < base_ ? base_ : idx;
  }

  // ----- EventRun hooks (sim/event_run.hpp) -----
  /// Where a run's first member was filed, and that bucket slot's push
  /// count just after.  Nothing else has been scheduled at the run's
  /// instant for as long as a member at `when` still files under `bucket`
  /// and the count has not moved.
  struct RunMark {
    SimTime when = 0;
    std::uint64_t bucket = 0;
    std::uint64_t pushes = 0;
  };
  /// Runs coalesce only in serial mode and on shard 0: the one shard the
  /// coordinating thread always drains, so a run's bookkeeping is never
  /// touched by two threads, and all of a run's keys are shard-0 keys.
  bool runsCoalesce() const { return !par_active_ && cur_shard_ == 0; }
  /// Files a run's first member as a shard-0 event; returns its key.
  std::uint64_t scheduleRunHead(SimTime when, EventCallback fn, RunMark& mark);
  /// Draws the key of another member at `when` for the run filed under
  /// `mark`, or returns 0 when the run cannot take it exactly.
  std::uint64_t extendRun(const RunMark& mark, SimTime when);
  /// Accounts the next member of the firing run exactly as fire() accounts
  /// an event: its key becomes currentEventKey(), and it leaves the pending
  /// count for the executed count.
  void enterRunMember(std::uint64_t key);
  /// Refiles the rest of a run whose member threw, under the key of its
  /// first unfired member; the members are still pending.
  void requeueRun(SimTime when, std::uint64_t key, EventCallback fn);

  /// Per-shard pending set during a parallel run.  Split in two so the hot
  /// within-window drain never pays heap discipline: `near` holds the
  /// current window's events sorted descending by (when, key) — back() is
  /// the earliest, drain is pop_back, and intra-window arrivals use a
  /// sorted insert (the calendar queue's late-arrival move) — while `far`
  /// is a plain min-heap of everything at or past the window end (retry
  /// timers, next-slice work).  Each worker owns its shards' queues for the
  /// whole window; alignas(64) keeps neighbouring shards' headers off each
  /// other's cache lines (the vector headers were the false-sharing suspect
  /// in the flat shard_heaps_ layout this replaces).
  struct alignas(64) ShardQueue {
    std::vector<QEntry> near;  ///< current window, sorted desc, drain=pop_back
    std::vector<QEntry> far;   ///< min-heap of events at/past the window end
  };

  // ----- parallel driver (engine.cpp) -----
  void distributeToShards();
  void workerLoop(int w);
  void drainWindow(detail::ExecContext& ctx, SimTime window_end);
  void fireCtx(detail::ExecContext& ctx, const QEntry& entry);
  void mergeWindow();
  void finishParallel();

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t dropped_tombstones_ = 0;
  std::size_t live_ = 0;

  /// Per-shard sequence counters for native (band-0) events, plus the
  /// global counter for handoff (band-1) events.  Within a shard both
  /// modes draw in the shard's execution order; handoffs draw in global
  /// canonical order (serially at call sites, at the barrier in parallel),
  /// which is the same sequence — the core of the identity argument.
  std::vector<std::uint64_t> shard_seq_;
  std::uint64_t handoff_seq_ = 1;
  ShardId cur_shard_ = 0;  ///< shard of the event firing in serial mode
  std::uint64_t cur_key_ = 0;  ///< key of the event firing in serial mode
  ShardAccessObserver* observer_ = nullptr;  ///< src/race detector, if any

  std::vector<std::unique_ptr<Node[]>> chunks_;  ///< stable pooled nodes
  /// Slots handed out so far.  Atomic only for the relaxed bounds check in
  /// cancel(): growth is single-threaded (serial) or under chunk_mu_.
  std::atomic<std::uint32_t> node_count_{0};
  std::vector<std::uint32_t> free_;  ///< reusable slots, LIFO
  std::mutex chunk_mu_;  ///< guards chunk growth during parallel windows

  std::uint64_t base_ = 0;  ///< absolute bucket index of the wheel cursor
  /// Absolute index of the bucket sorted for draining (only ever the one at
  /// the cursor); UINT64_MAX when none.  base_ is monotone, so a stale value
  /// can never collide with a future bucket index.
  std::uint64_t sorted_bucket_ = UINT64_MAX;
  std::size_t wheel_count_ = 0;  ///< entries in the wheel (incl. tombstones)
  /// Per-bucket entry lists; the bucket at sorted_bucket_ is sorted
  /// descending by (when, key) so back() is the earliest entry.
  std::vector<std::vector<QEntry>> buckets_;
  std::vector<QEntry> overflow_;  ///< beyond-horizon min-heap
  /// Entries ever filed per bucket slot (wheel or overflow, by the
  /// bucketIndex they were filed under); EventRun's exactness check.
  std::vector<std::uint64_t> pushes_;

  // ----- parallel-run state (live only inside run(ParallelPolicy)) -----
  bool par_active_ = false;
  std::vector<ShardQueue> shard_qs_;  ///< per-shard two-level queues
  std::vector<std::unique_ptr<detail::ExecContext>> ctxs_;
  std::vector<std::thread> workers_;

  // Lock-free window barrier.  The coordinator publishes window_end_, then
  // release-bumps window_gen_; workers acquire-load the generation (so the
  // window end is visible), drain, and release-add workers_done_, which the
  // coordinator acquire-polls before merging.  Each atomic sits on its own
  // cache line so the barrier handshake never false-shares with anything.
  // Waiters spin briefly then yield — on an oversubscribed host the yield
  // path dominates, which is exactly right.
  alignas(64) std::atomic<std::uint64_t> window_gen_{0};
  alignas(64) std::atomic<int> workers_done_{0};
  alignas(64) std::atomic<bool> par_quit_{false};
  SimTime window_end_ = 0;  ///< published via the window_gen_ release/acquire

  /// Snapshot serializer (src/snapshot): warps now_/base_ and restores the
  /// seq counters so a restored run draws identical event keys.  Pending
  /// events are never serialized — restore re-arms them logically.
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::sim
