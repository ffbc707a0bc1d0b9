#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

namespace bcs::sim {

void simFail(const std::string& what) {
#if defined(__cpp_exceptions)
  throw SimError(what);
#else
  std::fprintf(stderr, "bcssim fatal: %s\n", what.c_str());
  std::abort();
#endif
}

// ---------------------------------------------------------------------------
// Canonical ordering key: (shard : 16 | handoff band : 1 | seq : 47).
// ---------------------------------------------------------------------------

namespace {

constexpr int kShardShift = 48;
constexpr std::uint64_t kHandoffBand = 1ull << 47;

std::uint64_t makeKey(ShardId shard, bool handoff_band, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(shard) << kShardShift) |
         (handoff_band ? kHandoffBand : 0) | seq;
}

ShardId keyShard(std::uint64_t key) {
  return static_cast<ShardId>(key >> kShardShift);
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-worker execution context.  Everything a firing callback touches
// through the engine (scheduling, cancellation, counters, deferred side
// effects) routes through here during a parallel window, so workers never
// write shared engine state mid-window; the coordinator folds the deltas in
// at the barrier, in canonical order.
// ---------------------------------------------------------------------------

namespace detail {

/// One worker's whole window state lives here, cache-line aligned so two
/// workers' hot fields never share a line.  The outbound handoff batches
/// are indexed by destination shard: each staging event appends to its
/// destination's vector, and the barrier performs a single canonically-
/// ordered bulk merge over all (worker, destination) batches instead of
/// staging per event through shared engine state.
struct alignas(64) ExecContext {
  struct StagedHandoff {
    SimTime when;
    SimTime src_when;       ///< firing time of the staging event
    std::uint64_t src_key;  ///< canonical key of the staging event
    std::uint32_t idx;      ///< handoff() call ordinal within that event
    EventCallback cb;
  };
  struct DeferredTrace {
    void* trace;
    TraceCommitFn commit;
    SimTime t;
    std::uint8_t category;
    int node;
    std::string message;
    SimTime src_when;
    std::uint64_t src_key;
    std::uint32_t idx;
  };

  Engine* eng = nullptr;
  int worker = 0;
  SimTime now = 0;
  SimTime window_end = 0;
  ShardId cur_shard = 0;
  std::uint64_t cur_key = 0;
  std::uint32_t handoff_idx = 0;
  std::uint32_t trace_idx = 0;
  void* queue = nullptr;  ///< the executing shard's Engine::ShardQueue
  std::vector<std::uint32_t> free;  ///< worker-private node arena
  std::int64_t live_delta = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t dropped = 0;
  SimTime max_fired = -1;
  /// Outbound handoff batches, one vector per destination shard (grown
  /// lazily; `outbound_touched` lists the non-empty ones so the barrier
  /// never scans the full width).
  std::vector<std::vector<StagedHandoff>> outbound;
  std::vector<ShardId> outbound_touched;
  std::vector<DeferredTrace> deferred;
#if defined(__cpp_exceptions)
  std::exception_ptr error;
#endif

  std::vector<StagedHandoff>& outboundFor(ShardId shard) {
    if (static_cast<std::size_t>(shard) >= outbound.size()) {
      outbound.resize(static_cast<std::size_t>(shard) + 1);
    }
    auto& batch = outbound[shard];
    if (batch.empty()) outbound_touched.push_back(shard);
    return batch;
  }
};

namespace {
// The executing worker's window state.  A fiber runs on whichever thread
// resumes it, so code on a fiber reads that thread's context like any
// other code inside the waking event.
thread_local ExecContext* t_ctx = nullptr;
}  // namespace

int currentWorkerIndex() { return t_ctx != nullptr ? t_ctx->worker : -1; }

bool deferTraceRecord(void* trace, TraceCommitFn commit, SimTime t,
                      std::uint8_t category, int node, std::string&& message) {
  ExecContext* ctx = t_ctx;
  if (ctx == nullptr) return false;
  ctx->deferred.push_back(ExecContext::DeferredTrace{
      trace, commit, t, category, node, std::move(message), ctx->now,
      ctx->cur_key, ctx->trace_idx++});
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Construction, node pool
// ---------------------------------------------------------------------------

Engine::Engine()
    : shard_seq_(1, 1), buckets_(kNumBuckets), pushes_(kNumBuckets, 0) {
  free_.reserve(kChunkSize);
  overflow_.reserve(64);
  // The chunk table never reallocates (workers index it while another
  // worker appends under chunk_mu_); reserve the lifetime maximum up front.
  chunks_.reserve(kMaxChunks);
}

Engine::~Engine() = default;

void Engine::failSchedulePast(SimTime when, SimTime now) const {
  simFail("Engine::at: scheduling into the past (when=" + formatTime(when) +
          ", now=" + formatTime(now) + ")");
}

void Engine::failNegativeDelay() { simFail("Engine::after: negative delay"); }

std::uint32_t Engine::acquireNode() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const std::uint32_t slot = node_count_.fetch_add(1, std::memory_order_relaxed);
  if ((slot >> kChunkShift) == chunks_.size()) {
    if (chunks_.size() == kMaxChunks) simFail("Engine: event-node pool exhausted");
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return slot;
}

std::uint32_t Engine::acquireNodeCtx(detail::ExecContext& ctx) {
  if (!ctx.free.empty()) {
    const std::uint32_t slot = ctx.free.back();
    ctx.free.pop_back();
    return slot;
  }
  // Refill the worker's arena with a batch of slots; the shared free list,
  // chunk growth and the slot counter are all serialized under chunk_mu_.
  // (The coordinator touches free_ without the lock only while workers are
  // parked between windows, so this is the sole concurrent access path.)
  // The batch is sized so a steady-state worker visits the lock at most
  // once per few windows — after the first windows the arena self-sustains
  // on recycled slots and never comes back here at all.
  constexpr std::uint32_t kBatch = 256;
  std::lock_guard<std::mutex> lock(chunk_mu_);
  std::uint32_t got = 0;
  while (got < kBatch && !free_.empty()) {
    ctx.free.push_back(free_.back());
    free_.pop_back();
    ++got;
  }
  for (; got < kBatch; ++got) {
    const std::uint32_t slot =
        node_count_.fetch_add(1, std::memory_order_relaxed);
    if ((slot >> kChunkShift) == chunks_.size()) {
      if (chunks_.size() == kMaxChunks) {
        simFail("Engine: event-node pool exhausted");
      }
      chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    }
    ctx.free.push_back(slot);
  }
  const std::uint32_t slot = ctx.free.back();
  ctx.free.pop_back();
  return slot;
}

void Engine::releaseNode(std::uint32_t slot) {
  Node& n = node(slot);
  n.armed = false;
  ++n.gen;  // invalidate any outstanding handles to this slot
  free_.push_back(slot);
}

// ---------------------------------------------------------------------------
// Queue primitives (shared by the serial calendar and the shard heaps)
// ---------------------------------------------------------------------------

void Engine::heapPush(std::vector<QEntry>& heap, QEntry entry) {
  heap.push_back(entry);
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry.firesBefore(heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = entry;
}

void Engine::heapPop(std::vector<QEntry>& heap) {
  const QEntry last = heap.back();
  heap.pop_back();
  if (heap.empty()) return;
  std::size_t i = 0;
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child + 1].firesBefore(heap[child])) ++child;
    if (!heap[child].firesBefore(last)) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = last;
}

// Descending (when, key): back() of a sorted bucket is the earliest entry.
static constexpr auto kLaterFirst = [](const auto& a, const auto& b) {
  return b.firesBefore(a);
};

void Engine::enqueue(QEntry entry) {
  // The cursor may already have scanned past this event's natural bucket
  // (base_ tracks the wheel minimum, and `when >= now_` is all we checked).
  // Clamping keeps ordering correct: within a bucket entries order by
  // (when, key), and all later buckets hold strictly later times.
  const std::uint64_t idx = bucketIndex(entry.when);
  ++pushes_[idx & kBucketMask];
  if (idx < base_ + kNumBuckets) {
    auto& bucket = buckets_[idx & kBucketMask];
    if (idx == sorted_bucket_) {
      // Late arrival into the bucket currently being drained: keep it
      // sorted so pop order stays exact.
      bucket.insert(
          std::upper_bound(bucket.begin(), bucket.end(), entry, kLaterFirst),
          entry);
    } else {
      bucket.push_back(entry);
    }
    ++wheel_count_;
  } else {
    heapPush(overflow_, entry);
  }
}

bool Engine::peekNext(QEntry& entry, bool& from_overflow) {
  // Drop dead entries from the overflow top first so the comparison below
  // sees a live candidate (or none).
  while (!overflow_.empty() && !node(overflow_.front().slot).armed) {
    releaseNode(overflow_.front().slot);
    heapPop(overflow_);
    ++dropped_tombstones_;
  }
  // Advance the cursor to the first bucket with a live entry, sorting each
  // bucket once as the cursor reaches it.
  const QEntry* wheel_top = nullptr;
  while (wheel_count_ > 0) {
    auto& bucket = buckets_[base_ & kBucketMask];
    if (!bucket.empty() && base_ != sorted_bucket_) {
      std::sort(bucket.begin(), bucket.end(), kLaterFirst);
      sorted_bucket_ = base_;
    }
    while (!bucket.empty() && !node(bucket.back().slot).armed) {
      releaseNode(bucket.back().slot);
      bucket.pop_back();
      --wheel_count_;
      ++dropped_tombstones_;
    }
    if (!bucket.empty()) {
      wheel_top = &bucket.back();
      break;
    }
    ++base_;
  }
  if (wheel_top == nullptr && overflow_.empty()) return false;
  if (wheel_top == nullptr) {
    entry = overflow_.front();
    from_overflow = true;
    // All activity lives beyond the horizon; jump the cursor so future
    // enqueues near this time land in the wheel again.
    const std::uint64_t idx =
        static_cast<std::uint64_t>(overflow_.front().when) >> kBucketShift;
    if (idx > base_) base_ = idx;
    return true;
  }
  if (!overflow_.empty() && overflow_.front().firesBefore(*wheel_top)) {
    entry = overflow_.front();
    from_overflow = true;
    return true;
  }
  entry = *wheel_top;
  from_overflow = false;
  return true;
}

void Engine::extract(bool from_overflow) {
  if (from_overflow) {
    heapPop(overflow_);
  } else {
    buckets_[base_ & kBucketMask].pop_back();
    --wheel_count_;
  }
}

// ---------------------------------------------------------------------------
// Scheduling and cancellation (context-aware)
// ---------------------------------------------------------------------------

Engine::Prep Engine::beginSchedule(SimTime when) {
  detail::ExecContext* ctx = detail::t_ctx;
  if (ctx != nullptr && ctx->eng == this) {
    if (when < ctx->now) failSchedulePast(when, ctx->now);
    return Prep{acquireNodeCtx(*ctx), ctx, ctx->cur_shard};
  }
  if (when < now_) failSchedulePast(when, now_);
  return Prep{acquireNode(), nullptr, cur_shard_};
}

Engine::Prep Engine::beginScheduleOn(ShardId shard, SimTime when) {
  detail::ExecContext* ctx = detail::t_ctx;
  if (ctx != nullptr && ctx->eng == this) {
    if (shard != ctx->cur_shard) {
      simFail("Engine::atOn: cross-shard scheduling (shard " +
              std::to_string(shard) + " from shard " +
              std::to_string(ctx->cur_shard) +
              ") during a parallel window; use handoff()");
    }
    if (when < ctx->now) failSchedulePast(when, ctx->now);
    return Prep{acquireNodeCtx(*ctx), ctx, shard};
  }
  if (when < now_) failSchedulePast(when, now_);
  // The serial engine has always allowed cross-shard atOn silently (the
  // parallel mode rejects it above).  Surface it to the race detector: it
  // is a write into the target shard's queue by the executing event.
  if (observer_ != nullptr && cur_key_ != 0 && shard != cur_shard_) {
    observer_->onSerialCrossShard(shard, "Engine::atOn");
  }
  return Prep{acquireNode(), nullptr, shard};
}

EventId Engine::finishSchedule(const Prep& p, SimTime when) {
  Node& n = node(p.slot);
  if (p.ctx != nullptr) {
    ++p.ctx->live_delta;
    // shard_seq_ is pre-sized by the coordinator and p.shard is owned by
    // exactly this worker for the whole run, so the draw is race-free and
    // replays the serial engine's per-shard sequence exactly.
    const std::uint64_t key =
        makeKey(p.shard, false, shard_seq_[p.shard]++);
    const QEntry entry{when, key, p.slot};
    // Same-shard scheduling only (beginSchedule* enforce it), so the target
    // queue is always the one the worker is draining: events inside the
    // window keep `near` sorted via the calendar queue's late-arrival
    // insert; everything else takes the far heap.
    auto& sq = *static_cast<ShardQueue*>(p.ctx->queue);
    if (when < p.ctx->window_end) {
      sq.near.insert(
          std::upper_bound(sq.near.begin(), sq.near.end(), entry, kLaterFirst),
          entry);
    } else {
      heapPush(sq.far, entry);
    }
    return EventId{p.slot + 1, n.gen};
  }
  ++live_;
  if (p.shard >= shard_seq_.size()) {
    shard_seq_.resize(static_cast<std::size_t>(p.shard) + 1, 1);
  }
  const std::uint64_t key = makeKey(p.shard, false, shard_seq_[p.shard]++);
  enqueue(QEntry{when, key, p.slot});
  return EventId{p.slot + 1, n.gen};
}

void Engine::handoffImpl(ShardId shard, SimTime when, EventCallback cb) {
  detail::ExecContext* ctx = detail::t_ctx;
  if (ctx != nullptr && ctx->eng == this) {
    if (when < ctx->window_end) {
      simFail("Engine::handoff: target time " + formatTime(when) +
              " precedes the next barrier (" + formatTime(ctx->window_end) +
              "); handoffs must land at or past the barrier");
    }
    ctx->outboundFor(shard).push_back(detail::ExecContext::StagedHandoff{
        when, ctx->now, ctx->cur_key, ctx->handoff_idx++, std::move(cb)});
    return;
  }
  if (when < now_) failSchedulePast(when, now_);
  const std::uint32_t slot = acquireNode();
  Node& n = node(slot);
  n.armed = true;
  n.shard = shard;
  n.fn = std::move(cb);
  ++live_;
  enqueue(QEntry{when, makeKey(shard, true, handoff_seq_++), slot});
}

bool Engine::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = id.slot - 1;
  if (slot >= node_count_.load(std::memory_order_relaxed)) return false;
  Node& n = node(slot);
  if (!n.armed || n.gen != id.gen) return false;
  detail::ExecContext* ctx = detail::t_ctx;
  if (ctx != nullptr && ctx->eng == this) {
    if (n.shard != ctx->cur_shard) {
      simFail("Engine::cancel: cross-shard cancel (event on shard " +
              std::to_string(n.shard) + " from shard " +
              std::to_string(ctx->cur_shard) + ") during a parallel window");
    }
    n.armed = false;  // tombstone, reclaimed lazily by the owning worker
    n.fn.reset();
    --ctx->live_delta;
    ++ctx->cancelled;
    return true;
  }
  // Serial-mode cross-shard cancel: allowed (the parallel mode fails
  // loudly), but reported to the race detector as a foreign-queue write.
  if (observer_ != nullptr && cur_key_ != 0 && n.shard != cur_shard_) {
    observer_->onSerialCrossShard(n.shard, "Engine::cancel");
  }
  n.armed = false;  // queue entry becomes a tombstone, reclaimed lazily
  n.fn.reset();
  --live_;
  ++cancelled_;
  return true;
}

// ---------------------------------------------------------------------------
// Same-instant runs (EventRun)
// ---------------------------------------------------------------------------
//
// Why extendRun is exact.  A run's members draw shard-0 keys k1 < ... < kn,
// and its one queue entry is (when, k1).  Plain events would have fired
// them in key order; the run does the same, so the two differ only if some
// other event at `when` has a key between k1 and kn.  Such a key was drawn,
// and so filed (serial scheduling files at once), after k1's.  It was filed
// under bucketIndex(when) as it stood then, which lies between the mark's
// bucket and the bucket the new member files under (the cursor only moves
// forward).  extendRun demands those two be equal, so the intruder went to
// the mark's slot and moved its push count.  Keys of other shards and
// handoff keys sort entirely before or after shard 0's native keys.

std::uint64_t Engine::scheduleRunHead(SimTime when, EventCallback fn,
                                      RunMark& mark) {
  at(when, std::move(fn));  // serial and on shard 0 (runsCoalesce)
  mark.when = when;
  mark.bucket = bucketIndex(when);
  mark.pushes = pushes_[mark.bucket & kBucketMask];
  return makeKey(0, false, shard_seq_[0] - 1);
}

std::uint64_t Engine::extendRun(const RunMark& mark, SimTime when) {
  // The run's entry has not finished firing, so `when` >= now_ already.
  if (when != mark.when || bucketIndex(when) != mark.bucket ||
      pushes_[mark.bucket & kBucketMask] != mark.pushes) {
    return 0;
  }
  ++live_;
  return makeKey(0, false, shard_seq_[0]++);
}

void Engine::enterRunMember(std::uint64_t key) {
  detail::ExecContext* ctx = detail::t_ctx;
  if (ctx != nullptr && ctx->eng == this) {
    // A run filed serially, fired in a parallel window (always on worker 0).
    ctx->cur_key = key;
    ctx->handoff_idx = 0;
    ctx->trace_idx = 0;
    --ctx->live_delta;
    ++ctx->executed;
    return;
  }
  cur_key_ = key;
  --live_;
  ++executed_;
}

void Engine::requeueRun(SimTime when, std::uint64_t key, EventCallback fn) {
  detail::ExecContext* ctx = detail::t_ctx;
  const bool in_window = ctx != nullptr && ctx->eng == this;
  const std::uint32_t slot = in_window ? acquireNodeCtx(*ctx) : acquireNode();
  Node& n = node(slot);
  n.armed = true;
  n.shard = keyShard(key);
  n.fn = std::move(fn);
  const QEntry entry{when, key, slot};
  if (in_window) {
    // `when` is the window's current instant: the entry belongs in `near`.
    auto& sq = *static_cast<ShardQueue*>(ctx->queue);
    sq.near.insert(
        std::upper_bound(sq.near.begin(), sq.near.end(), entry, kLaterFirst),
        entry);
    return;
  }
  enqueue(entry);
}

SimTime Engine::nowParallel() const {
  const detail::ExecContext* ctx = detail::t_ctx;
  return (ctx != nullptr && ctx->eng == this) ? ctx->now : now_;
}

ShardId Engine::currentShard() const {
  const detail::ExecContext* ctx = detail::t_ctx;
  return (ctx != nullptr && ctx->eng == this) ? ctx->cur_shard : cur_shard_;
}

std::uint64_t Engine::currentEventKey() const {
  const detail::ExecContext* ctx = detail::t_ctx;
  return (ctx != nullptr && ctx->eng == this) ? ctx->cur_key : cur_key_;
}

// ---------------------------------------------------------------------------
// Serial execution (the reference implementation)
// ---------------------------------------------------------------------------

// Fires the event in `entry` (already extracted from the queue).  The
// callback runs in place: node addresses are stable and the slot is not
// released until the callback returns, so reentrant at()/cancel() calls are
// safe and a self-cancel fails harmlessly (armed is already false).  For an
// EventRun entry the callback fires the whole run, entering each further
// member through enterRunMember.
void Engine::fire(const QEntry& entry) {
  now_ = entry.when;
  Node& n = node(entry.slot);
  cur_shard_ = n.shard;
  cur_key_ = entry.key;
  n.armed = false;
  --live_;
  ++executed_;
#if defined(__cpp_exceptions)
  try {
    n.fn.invokeAndReset();
  } catch (...) {
    n.fn.reset();
    releaseNode(entry.slot);
    throw;
  }
#else
  n.fn.invokeAndReset();
#endif
  releaseNode(entry.slot);
}

bool Engine::step() {
  QEntry entry;
  bool from_overflow;
  if (!peekNext(entry, from_overflow)) return false;
  extract(from_overflow);
  fire(entry);
  cur_shard_ = 0;
  cur_key_ = 0;
  return true;
}

SimTime Engine::run(SimTime until) {
  // Fused peek + extract + fire loop.  Equivalent to `while (step())` with
  // an `until` bound, but keeps the bucket reference and queue entry in
  // registers across the pop instead of re-deriving them per event.
  for (;;) {
    while (!overflow_.empty() && !node(overflow_.front().slot).armed) {
      releaseNode(overflow_.front().slot);
      heapPop(overflow_);
      ++dropped_tombstones_;
    }
    std::vector<QEntry>* bucket = nullptr;
    while (wheel_count_ > 0) {
      bucket = &buckets_[base_ & kBucketMask];
      if (!bucket->empty() && base_ != sorted_bucket_) {
        std::sort(bucket->begin(), bucket->end(), kLaterFirst);
        sorted_bucket_ = base_;
      }
      while (!bucket->empty() && !node(bucket->back().slot).armed) {
        releaseNode(bucket->back().slot);
        bucket->pop_back();
        --wheel_count_;
        ++dropped_tombstones_;
      }
      if (!bucket->empty()) break;
      bucket = nullptr;
      ++base_;
    }
    if (bucket == nullptr) {
      if (overflow_.empty()) break;  // queue exhausted
      const QEntry entry = overflow_.front();
      if (entry.when > until) break;
      // All activity lives beyond the horizon; jump the cursor so future
      // enqueues near this time land in the wheel again.
      const std::uint64_t idx =
          static_cast<std::uint64_t>(entry.when) >> kBucketShift;
      if (idx > base_) base_ = idx;
      heapPop(overflow_);
      fire(entry);
      continue;
    }
    const QEntry wheel_top = bucket->back();
    if (!overflow_.empty() && overflow_.front().firesBefore(wheel_top)) {
      const QEntry entry = overflow_.front();
      if (entry.when > until) break;
      heapPop(overflow_);
      fire(entry);
      continue;
    }
    if (wheel_top.when > until) break;
    bucket->pop_back();
    --wheel_count_;
    // Warm the next victim's node line while this callback runs.
    if (!bucket->empty()) __builtin_prefetch(&node(bucket->back().slot));
    fire(wheel_top);
  }
  cur_shard_ = 0;
  cur_key_ = 0;
  if (now_ < until && until != INT64_MAX) now_ = until;
  return now_;
}

// ---------------------------------------------------------------------------
// Parallel execution: windowed worker pool with barrier merge
// ---------------------------------------------------------------------------

void Engine::distributeToShards() {
  std::vector<QEntry> pending;
  pending.reserve(wheel_count_ + overflow_.size());
  for (auto& bucket : buckets_) {
    pending.insert(pending.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  wheel_count_ = 0;
  sorted_bucket_ = UINT64_MAX;
  pending.insert(pending.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();

  std::size_t nshards = 1;
  for (const QEntry& e : pending) {
    nshards = std::max(nshards, static_cast<std::size_t>(keyShard(e.key)) + 1);
  }
  // shard_qs_ survives between runs so its vectors keep their capacity;
  // between windows every entry lives in `far` (near drains to empty by
  // construction), so distribution only touches the far heaps.
  if (shard_qs_.size() < nshards) shard_qs_.resize(nshards);
  if (shard_seq_.size() < nshards) shard_seq_.resize(nshards, 1);
  for (const QEntry& e : pending) {
    heapPush(shard_qs_[keyShard(e.key)].far, e);
  }
}

// Bounded spin before yielding: long enough to catch a near-simultaneous
// publication on a multicore host, short enough that an oversubscribed
// worker (more workers than cores) surrenders its timeslice promptly.
static constexpr int kBarrierSpins = 256;

void Engine::workerLoop(int w) {
  detail::ExecContext& ctx = *ctxs_[static_cast<std::size_t>(w)];
  std::uint64_t seen_gen = 0;
  for (;;) {
    SimTime wend;
    for (int spins = 0;; ++spins) {
      if (par_quit_.load(std::memory_order_acquire)) return;
      const std::uint64_t gen = window_gen_.load(std::memory_order_acquire);
      if (gen != seen_gen) {
        seen_gen = gen;
        // The acquire above synchronizes with the coordinator's release
        // bump, so the plain read of window_end_ is ordered.
        wend = window_end_;
        break;
      }
      if (spins >= kBarrierSpins) std::this_thread::yield();
    }
    drainWindow(ctx, wend);
    workers_done_.fetch_add(1, std::memory_order_release);
  }
}

void Engine::fireCtx(detail::ExecContext& ctx, const QEntry& entry) {
  ctx.now = entry.when;
  ctx.cur_shard = keyShard(entry.key);
  ctx.cur_key = entry.key;
  ctx.handoff_idx = 0;
  ctx.trace_idx = 0;
  if (entry.when > ctx.max_fired) ctx.max_fired = entry.when;
  Node& n = node(entry.slot);
  n.armed = false;
  --ctx.live_delta;
  ++ctx.executed;
#if defined(__cpp_exceptions)
  try {
    n.fn.invokeAndReset();
  } catch (...) {
    n.fn.reset();
    ++n.gen;
    ctx.free.push_back(entry.slot);
    throw;
  }
#else
  n.fn.invokeAndReset();
#endif
  ++n.gen;
  ctx.free.push_back(entry.slot);
}

void Engine::drainWindow(detail::ExecContext& ctx, SimTime window_end) {
  detail::ExecContext* prev = detail::t_ctx;
  detail::t_ctx = &ctx;
  ctx.window_end = window_end;
#if defined(__cpp_exceptions)
  try {
#endif
    const std::size_t stride = ctxs_.size();
    for (std::size_t s = static_cast<std::size_t>(ctx.worker);
         s < shard_qs_.size(); s += stride) {
      ShardQueue& sq = shard_qs_[s];
      ctx.queue = &sq;
      // Window prep: move matured far entries into the near vector (dead
      // ones recycle straight into this worker's arena) and sort it once,
      // descending, so the drain below is pop_back off the tail.  Intra-
      // window arrivals keep the order via sorted insert in finishSchedule.
      while (!sq.far.empty() && sq.far.front().when < window_end) {
        const QEntry e = sq.far.front();
        heapPop(sq.far);
        if (!node(e.slot).armed) {
          ++node(e.slot).gen;
          ctx.free.push_back(e.slot);
          ++ctx.dropped;
          continue;
        }
        sq.near.push_back(e);
      }
      std::sort(sq.near.begin(), sq.near.end(), kLaterFirst);
      while (!sq.near.empty()) {
        const QEntry entry = sq.near.back();
        sq.near.pop_back();
        if (!node(entry.slot).armed) {
          ++node(entry.slot).gen;
          ctx.free.push_back(entry.slot);
          ++ctx.dropped;
          continue;
        }
        fireCtx(ctx, entry);
      }
      // Invariant on exit: near is empty — between barriers every pending
      // event for this shard lives in far.
    }
#if defined(__cpp_exceptions)
  } catch (...) {
    ctx.error = std::current_exception();
  }
#endif
  ctx.queue = nullptr;
  detail::t_ctx = prev;
}

void Engine::mergeWindow() {
  // Counter deltas first (cheap, order-insensitive).
  for (auto& cp : ctxs_) {
    detail::ExecContext& c = *cp;
    executed_ += c.executed;
    cancelled_ += c.cancelled;
    dropped_tombstones_ += c.dropped;
    live_ = static_cast<std::size_t>(static_cast<std::int64_t>(live_) +
                                     c.live_delta);
    if (c.max_fired > now_) now_ = c.max_fired;
    c.executed = 0;
    c.cancelled = 0;
    c.dropped = 0;
    c.live_delta = 0;
    c.max_fired = -1;
  }

  // Cross-shard handoffs: each worker accumulated one batch per destination
  // shard; the barrier applies them all in the canonical order of their
  // staging events — exactly the order the serial engine would have drawn
  // handoff sequence numbers in.  One global sequence counter keeps keys
  // consistent across mixed serial/parallel segments of the same run.
  struct MergeRef {
    detail::ExecContext::StagedHandoff* h;
    ShardId dest;
  };
  std::vector<MergeRef> staged;
  for (auto& cp : ctxs_) {
    for (ShardId dest : cp->outbound_touched) {
      for (auto& h : cp->outbound[static_cast<std::size_t>(dest)]) {
        staged.push_back(MergeRef{&h, dest});
      }
    }
  }
  std::sort(staged.begin(), staged.end(),
            [](const MergeRef& a, const MergeRef& b) {
              if (a.h->src_when != b.h->src_when)
                return a.h->src_when < b.h->src_when;
              if (a.h->src_key != b.h->src_key)
                return a.h->src_key < b.h->src_key;
              return a.h->idx < b.h->idx;
            });
  for (const MergeRef& r : staged) {
    if (static_cast<std::size_t>(r.dest) >= shard_qs_.size()) {
      shard_qs_.resize(static_cast<std::size_t>(r.dest) + 1);
      shard_seq_.resize(static_cast<std::size_t>(r.dest) + 1, 1);
    }
    const std::uint32_t slot = acquireNode();
    Node& n = node(slot);
    n.armed = true;
    n.shard = r.dest;
    n.fn = std::move(r.h->cb);
    ++live_;
    heapPush(shard_qs_[r.dest].far,
             QEntry{r.h->when, makeKey(r.dest, true, handoff_seq_++), slot});
  }
  for (auto& cp : ctxs_) {
    for (ShardId dest : cp->outbound_touched) {
      cp->outbound[static_cast<std::size_t>(dest)].clear();
    }
    cp->outbound_touched.clear();
  }

  // Deferred trace records, spliced in canonical emission order (the serial
  // engine appends in execution order, and execution order is the key
  // order; ties within one event keep their call order via idx).
  std::vector<detail::ExecContext::DeferredTrace*> traces;
  for (auto& cp : ctxs_) {
    for (auto& d : cp->deferred) traces.push_back(&d);
  }
  std::sort(traces.begin(), traces.end(),
            [](const detail::ExecContext::DeferredTrace* a,
               const detail::ExecContext::DeferredTrace* b) {
              if (a->src_when != b->src_when) return a->src_when < b->src_when;
              if (a->src_key != b->src_key) return a->src_key < b->src_key;
              return a->idx < b->idx;
            });
  for (detail::ExecContext::DeferredTrace* d : traces) {
    d->commit(d->trace, d->t, d->category, d->node, std::move(d->message));
  }
  for (auto& cp : ctxs_) cp->deferred.clear();
}

void Engine::finishParallel() {
  par_quit_.store(true, std::memory_order_release);
  for (auto& t : workers_) t.join();
  workers_.clear();
  // Worker arenas fold back into the shared free list in worker order
  // (slot ids are not observable, but replays should still be identical).
  for (auto& cp : ctxs_) {
    free_.insert(free_.end(), cp->free.begin(), cp->free.end());
    cp->free.clear();
  }
  // Events beyond `until` (and any remaining tombstones) return to the
  // global calendar so a later run — serial or parallel — continues them.
  // `near` is normally empty here; it only holds entries after an abort
  // mid-window, and those must survive too.
  for (auto& sq : shard_qs_) {
    for (const QEntry& e : sq.near) enqueue(e);
    sq.near.clear();
    for (const QEntry& e : sq.far) enqueue(e);
    sq.far.clear();
  }
  ctxs_.clear();
  par_active_ = false;
  cur_shard_ = 0;
  cur_key_ = 0;
}

SimTime Engine::run(const ParallelPolicy& policy, SimTime until) {
  if (policy.threads < 1) {
    simFail("Engine::run: ParallelPolicy.threads must be >= 1");
  }
  if (par_active_ || detail::t_ctx != nullptr) {
    simFail("Engine::run: nested parallel run");
  }
  if (!policy.next_barrier && policy.window <= 0) {
    simFail("Engine::run: ParallelPolicy.window must be positive");
  }
  if (policy.windows_per_barrier < 1) {
    simFail("Engine::run: ParallelPolicy.windows_per_barrier must be >= 1");
  }

  distributeToShards();

  // More workers than cores (or than shards) only adds scheduler thrash;
  // the shard→worker assignment is not observable — byte-identity holds by
  // construction of the canonical event order — so clamping is always safe.
  int nworkers = policy.threads;
  if (policy.clamp_to_hardware) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0 && nworkers > static_cast<int>(hw)) {
      nworkers = static_cast<int>(hw);
    }
    if (nworkers > static_cast<int>(shard_qs_.size())) {
      nworkers = static_cast<int>(shard_qs_.size());
    }
    if (nworkers < 1) nworkers = 1;
  }
  ctxs_.clear();
  for (int w = 0; w < nworkers; ++w) {
    auto ctx = std::make_unique<detail::ExecContext>();
    ctx->eng = this;
    ctx->worker = w;
    ctx->outbound.resize(shard_qs_.size());
    ctxs_.push_back(std::move(ctx));
  }
  par_quit_.store(false, std::memory_order_relaxed);
  window_gen_.store(0, std::memory_order_relaxed);
  workers_done_.store(0, std::memory_order_relaxed);
  par_active_ = true;
  for (int w = 1; w < nworkers; ++w) {
    workers_.emplace_back([this, w] { workerLoop(w); });
  }

  // Barrier coarsening: several grid windows fused into one barrier-to-
  // barrier stretch.  Only valid when the model keeps cross-shard effects
  // on a coarser grid too (the runtime knows its slice schedule).
  const SimTime grid =
      policy.window > 0
          ? policy.window * static_cast<SimTime>(policy.windows_per_barrier)
          : 0;

#if defined(__cpp_exceptions)
  try {
#endif
    for (;;) {
      // Earliest pending event across shards (dropping dead heap tops).
      // Between barriers everything sits in the far heaps; near is empty.
      SimTime tmin = INT64_MAX;
      bool any = false;
      for (auto& sq : shard_qs_) {
        auto& heap = sq.far;
        while (!heap.empty() && !node(heap.front().slot).armed) {
          releaseNode(heap.front().slot);
          heapPop(heap);
          ++dropped_tombstones_;
        }
        if (!heap.empty()) {
          any = true;
          tmin = std::min(tmin, heap.front().when);
        }
      }
      if (!any || tmin > until) break;

      SimTime wend;
      if (policy.next_barrier) {
        wend = policy.next_barrier(tmin);
        if (wend <= tmin) {
          simFail("Engine::run: ParallelPolicy.next_barrier must return a "
                  "time past its argument");
        }
      } else {
        wend = (tmin / grid + 1) * grid;
      }
      if (until != INT64_MAX && wend > until) wend = until + 1;

      if (nworkers > 1) {
        workers_done_.store(0, std::memory_order_relaxed);
        window_end_ = wend;
        // The release bump publishes window_end_ to the workers' acquire
        // loads — this is the whole barrier wake-up path, no mutex.
        window_gen_.fetch_add(1, std::memory_order_release);
      }
      // The coordinator doubles as worker 0 (fibers live on shard 0, so
      // model code with a call stack always runs on the caller's thread).
      drainWindow(*ctxs_[0], wend);
      if (nworkers > 1) {
        for (int spins = 0; workers_done_.load(std::memory_order_acquire) !=
                            nworkers - 1;
             ++spins) {
          if (spins >= kBarrierSpins) {
            std::this_thread::yield();
            spins = 0;
          }
        }
      }
#if defined(__cpp_exceptions)
      for (auto& cp : ctxs_) {
        if (cp->error) {
          std::exception_ptr err = std::exchange(cp->error, nullptr);
          std::rethrow_exception(err);
        }
      }
#endif
      mergeWindow();
      // All worker effects up to `wend` are now committed on this thread;
      // the race detector merges its per-shard access tables here.
      if (observer_ != nullptr) observer_->onBarrier(wend);
    }
#if defined(__cpp_exceptions)
  } catch (...) {
    finishParallel();
    throw;
  }
#endif
  finishParallel();
  if (now_ < until && until != INT64_MAX) now_ = until;
  return now_;
}

}  // namespace bcs::sim
