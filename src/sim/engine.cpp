#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
// Construction, node pool
// ---------------------------------------------------------------------------

Engine::Engine() : buckets_(kNumBuckets), pushes_(kNumBuckets, 0) {
  free_.reserve(kChunkSize);
  overflow_.reserve(64);
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
  const std::uint32_t slot = node_count_++;
  if ((slot >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return slot;
}

void Engine::releaseNode(std::uint32_t slot) {
  Node& n = node(slot);
  n.armed = false;
  ++n.gen;  // invalidate any outstanding handles to this slot
  free_.push_back(slot);
}

// ---------------------------------------------------------------------------
// Queue primitives
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

SimTime Engine::nextEventTime() const {
  // The overflow top is its heap's minimum, live or not.
  SimTime best = overflow_.empty() ? INT64_MAX : overflow_.front().when;
  if (wheel_count_ == 0) return best;
  // Every wheel entry lies in one of the kNumBuckets buckets from the
  // cursor on, and only the cursor's bucket can hold times below its own
  // start (late arrivals clamped to it).  The first bucket with a live
  // entry holds the wheel's minimum; no later bucket can beat `best` once
  // its start reaches it.
  for (std::uint64_t b = base_; b < base_ + kNumBuckets; ++b) {
    if (b != base_ && static_cast<SimTime>(b << kBucketShift) >= best) break;
    SimTime first = INT64_MAX;
    for (const QEntry& e : buckets_[b & kBucketMask]) {
      if (e.when < first && node(e.slot).armed) first = e.when;
    }
    if (first != INT64_MAX) return std::min(best, first);
  }
  return best;
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
// Cancellation
// ---------------------------------------------------------------------------

bool Engine::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = id.slot - 1;
  if (slot >= node_count_) return false;
  Node& n = node(slot);
  if (!n.armed || n.gen != id.gen) return false;
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
// Why extendRun is exact.  A run's members draw keys k1 < ... < kn, and its
// one queue entry is (when, k1).  Plain events would have fired them in key
// order; the run does the same, so the two differ only if some other event
// at `when` has a key between k1 and kn.  Such a key was drawn, and so
// filed (scheduling files at once), after k1's.  It was filed under
// bucketIndex(when) as it stood then, which lies between the mark's bucket
// and the bucket the new member files under (the cursor only moves
// forward).  extendRun demands those two be equal, so the intruder went to
// the mark's slot and moved its push count.

std::uint64_t Engine::scheduleRunHead(SimTime when, EventCallback fn,
                                      RunMark& mark) {
  at(when, std::move(fn));
  mark.when = when;
  mark.bucket = bucketIndex(when);
  mark.pushes = pushes_[mark.bucket & kBucketMask];
  return next_key_ - 1;
}

std::uint64_t Engine::extendRun(const RunMark& mark, SimTime when) {
  // The run's entry has not finished firing, so `when` >= now_ already.
  if (when != mark.when || bucketIndex(when) != mark.bucket ||
      pushes_[mark.bucket & kBucketMask] != mark.pushes) {
    return 0;
  }
  ++live_;
  return next_key_++;
}

void Engine::enterRunMember(std::uint64_t key) {
  cur_key_ = key;
  --live_;
  ++executed_;
}

void Engine::requeueRun(SimTime when, std::uint64_t key, EventCallback fn) {
  const std::uint32_t slot = acquireNode();
  Node& n = node(slot);
  n.armed = true;
  n.fn = std::move(fn);
  enqueue(QEntry{when, key, slot});
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Fires the event in `entry` (already extracted from the queue).  The
// callback runs in place: node addresses are stable and the slot is not
// released until the callback returns, so reentrant at()/cancel() calls are
// safe and a self-cancel fails harmlessly (armed is already false).  For an
// EventRun entry the callback fires the whole run, entering each further
// member through enterRunMember.  A callback that throws leaves no current
// event behind: currentEventKey() reads 0 once the exception leaves the
// engine, as after a normal return from run() or step().
void Engine::fire(const QEntry& entry) {
  now_ = entry.when;
  Node& n = node(entry.slot);
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
    cur_key_ = 0;
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
  run_limit_ = entry.when;
  fire(entry);
  cur_key_ = 0;
  return true;
}
SimTime Engine::run(SimTime until) {
  // Fused peek + extract + fire loop.  Equivalent to `while (step())` with
  // an `until` bound, but keeps the bucket reference and queue entry in
  // registers across the pop instead of re-deriving them per event.
  run_limit_ = until;
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
  cur_key_ = 0;
  if (now_ < until && until != INT64_MAX) now_ = until;
  return now_;
}

}  // namespace bcs::sim
