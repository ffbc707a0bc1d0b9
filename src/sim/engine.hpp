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
//    first reaches it, after which draining is pop_back.  An event filed
//    at now() draws the largest key so far, so it fires after everything
//    already queued at now() and before anything later: it is appended to
//    a same-instant FIFO in O(1), merged with the cursor's bucket on every
//    pop.  Other late arrivals into the already-sorted current bucket (a
//    callback scheduling later within the same ~2 us window) use a sorted
//    insert.
//  * Event nodes are pooled and reused; the callback lives in a
//    small-buffer-optimized slot inside the node, so the common
//    at/after/cancel/run cycle performs zero heap allocations for callables
//    up to EventCallback::kInlineBytes (sim/inline_function.hpp).
//  * Cancellation is O(1): an EventId carries the node's generation, cancel
//    disarms the node (and frees its callback) in place, and the disarmed
//    entry is dropped lazily when the queue walk reaches it (see
//    droppedTombstones()).
//  * Same-instant ranges (sim/event_run.hpp): EventRun calls with
//    consecutive arguments for one instant share one event, one key and
//    one queue entry when no other event was filed under that bucket in
//    between, which proves nothing can fire between them.  Any other
//    filing is an event of its own, under the key a plain at() would draw.
//  * Serial is the only mode: one thread drains one queue, so a program
//    gives the same trace, counters and checkpoint bytes on every host.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace bcs::snapshot {
class StateIO;  // snapshot/state_io.hpp: serializes engine counters
}

namespace bcs::sim {

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

/// The event engine.  Owns the clock and the pending-event queue.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (must be >= now()).
  template <typename Fn>
  EventId at(SimTime when, Fn&& fn) {
    if (when < now_) failSchedulePast(when, now_);
    const std::uint32_t slot = acquireNode();
    Node& n = node(slot);
    n.armed = true;
    n.fn.emplace(std::forward<Fn>(fn));
    ++live_;
    enqueue(QEntry{when, next_key_++, slot});
    return EventId{slot + 1, n.gen};
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  template <typename Fn>
  EventId after(Duration delay, Fn&& fn) {
    if (delay < 0) failNegativeDelay();
    return at(now_ + delay, std::forward<Fn>(fn));
  }

  /// Cancels a pending event in O(1).  Returns true if the event was still
  /// pending; the queued entry becomes a tombstone dropped lazily.
  bool cancel(EventId id);

  /// Runs until the queue drains or `until` is reached (whichever first).
  /// Returns the time of the last processed event.
  SimTime run(SimTime until = INT64_MAX);

  /// Fires the earliest pending event (an EventRun range fires whole)
  /// through the loop run() uses.  Returns false if the queue is empty.
  /// Useful for fine-grained unit tests of the engine.
  bool step();

  /// Number of live (scheduled, not cancelled, not yet fired) events.
  std::size_t pendingEvents() const { return live_; }

  /// Earliest instant at which a pending event may fire; INT64_MAX when
  /// nothing is pending.  Conservative: never later than the earliest live
  /// event, but possibly earlier, since a cancelled entry on top of the
  /// overflow heap counts as pending.  It moves no cursor, sorts no bucket
  /// and reclaims no tombstone, so asking changes nothing a later event
  /// sees.  Asked from inside an EventRun range, it does not see the
  /// range's calls still to come: they are not queue entries, and fire at
  /// now().
  SimTime nextEventTime() const;

  /// Latest instant the engine may reach before handing control back: the
  /// `until` of the run() in progress, or the firing entry's own time
  /// under step().  Work a callback completes ahead of the clock must not
  /// reach past it, or the caller would observe it early.
  SimTime runLimit() const { return run_limit_; }

  /// Total number of events executed since construction.
  std::uint64_t executedEvents() const { return executed_; }

  /// Cancelled entries physically reclaimed from the queue so far; together
  /// with cancelledEvents() this makes cancellation overhead observable.
  std::uint64_t droppedTombstones() const { return dropped_tombstones_; }

  /// Event-node pool slots handed out since construction (high-water mark,
  /// never shrinks).  A stable value across repeated runs of the same
  /// workload proves the pool recycles nodes instead of growing; see the
  /// arena tests in test_sim.cpp.
  std::uint32_t poolSlots() const { return node_count_; }

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

  /// Ordering key (the scheduling sequence number) of the event executing
  /// now, or 0 outside event execution, including after a callback threw
  /// out of run() or step().  Keys start at 1, so no real event has key 0.
  std::uint64_t currentEventKey() const { return cur_key_; }

 private:
  template <std::integral Arg>
  friend class EventRun;

  /// Pooled event node.  The ordering key (when, key) lives only in the
  /// queue entry; the node carries just the callback and handle state, so a
  /// node is exactly one cache line.  Nodes live in fixed-size chunks whose
  /// addresses never move, which lets run() invoke a callback in place (no
  /// per-event move-out) while the callback freely schedules more events.
  struct Node {
    EventCallback fn;
    std::uint32_t gen = 0;
    bool armed = false;
  };
  static_assert(sizeof(Node) <= 64, "event node should stay one cache line");

  static constexpr std::uint32_t kChunkShift = 10;  // 1024 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

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
  /// and never chase into the node pool.  `key` is the scheduling sequence
  /// number, so (when, key) is the total firing order.
  struct QEntry {
    SimTime when;
    std::uint64_t key;
    std::uint32_t slot;
    bool firesBefore(const QEntry& o) const {
      return when != o.when ? when < o.when : key < o.key;
    }
  };

  [[noreturn]] void failSchedulePast(SimTime when, SimTime now) const;
  [[noreturn]] static void failNegativeDelay();

  Node& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  const Node& node(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  std::uint32_t acquireNode();
  void releaseNode(std::uint32_t slot);
  /// Files an entry under a freshly drawn key.
  void enqueue(QEntry entry);
  /// Files an entry in (when, key) order wherever it falls; the only path
  /// for an old key (requeueRun).
  void enqueueOrdered(QEntry entry);
  /// Where the earliest live entry sits.
  enum class Source : std::uint8_t { kNone, kBucket, kSameInstant, kOverflow };
  /// The front of the cursor's bucket merged with the same-instant FIFO's:
  /// sorts the bucket if the cursor just reached it, drops the tombstones
  /// in front and says which of the two holds the live front (kBucket or
  /// kSameInstant), or kNone when both are exhausted.
  Source cursorFront();
  /// Removes the earliest live entry, `entry`, from `src`.
  void extract(Source src, const QEntry& entry);
  /// Fires entries in (when, key) order while the earliest is due by
  /// `until`, only the first if kOnce.  Returns whether it fired one.
  template <bool kOnce>
  bool drain(SimTime until);
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
  /// Where a range's event was filed, and that bucket slot's push count
  /// just after.  Nothing else has been scheduled at the range's instant
  /// for as long as a filing at `when` still goes under `bucket` and the
  /// count has not moved.
  struct RunMark {
    SimTime when = 0;
    std::uint64_t bucket = 0;
    std::uint64_t pushes = 0;
  };
  /// Files a range's event exactly as at() would, and marks it.
  void scheduleRunHead(SimTime when, EventCallback fn, RunMark& mark);
  /// True iff the range filed under `mark` can take another call at `when`
  /// exactly: nothing else has been filed at its instant since, so that
  /// call's own event would have fired right behind the range.
  bool canExtendRun(const RunMark& mark, SimTime when) const {
    // The range's event has not finished firing, so `when` >= now_ already.
    return when == mark.when && bucketIndex(when) == mark.bucket &&
           pushes_[mark.bucket & kBucketMask] == mark.pushes;
  }
  /// Refiles the rest of the range firing now, whose call threw, as a
  /// pending event under the range's key.
  void requeueRun(EventCallback fn);

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t dropped_tombstones_ = 0;
  std::size_t live_ = 0;

  std::uint64_t next_key_ = 1;  ///< key of the next scheduled event
  std::uint64_t cur_key_ = 0;   ///< key of the event firing now
  SimTime run_limit_ = 0;       ///< see runLimit()

  std::vector<std::unique_ptr<Node[]>> chunks_;  ///< stable pooled nodes
  std::uint32_t node_count_ = 0;  ///< slots handed out so far
  std::vector<std::uint32_t> free_;  ///< reusable slots, LIFO

  std::uint64_t base_ = 0;  ///< absolute bucket index of the wheel cursor
  /// Absolute index of the bucket sorted for draining (only ever the one at
  /// the cursor); UINT64_MAX when none.  base_ is monotone, so a stale value
  /// can never collide with a future bucket index.
  std::uint64_t sorted_bucket_ = UINT64_MAX;
  std::size_t wheel_count_ = 0;  ///< entries in the wheel (incl. tombstones)
  /// Per-bucket entry lists; the bucket at sorted_bucket_ is sorted
  /// descending by (when, key) so back() is the earliest entry.
  std::vector<std::vector<QEntry>> buckets_;
  /// Entries filed at now_ under fresh keys, in key order from
  /// same_instant_head_ on.  They belong to the cursor's bucket (counted in
  /// wheel_count_, tombstones dropped when they reach the merged front),
  /// and the queue is empty whenever the clock moves.
  std::vector<QEntry> same_instant_;
  std::size_t same_instant_head_ = 0;
  std::vector<QEntry> overflow_;  ///< beyond-horizon min-heap
  /// Entries ever filed per bucket slot (wheel or overflow, by the
  /// bucketIndex they were filed under); EventRun's exactness check.
  std::vector<std::uint64_t> pushes_;

  /// Snapshot serializer (src/snapshot): warps now_/base_ and restores the
  /// key counter so a restored run draws identical event keys.  Pending
  /// events are never serialized — restore re-arms them logically.
  friend class bcs::snapshot::StateIO;
};

}  // namespace bcs::sim
