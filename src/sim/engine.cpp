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
  if (entry.when != now_) {
    enqueueOrdered(entry);
    return;
  }
  // A fresh key at now_ is the largest drawn so far: the entry fires after
  // every one queued at now_ and before anything later, so the FIFO's tail
  // is its exact place.  It counts as a push under the bucket it would
  // have been inserted into, for EventRun's exactness check.
  ++pushes_[bucketIndex(now_) & kBucketMask];
  same_instant_.push_back(entry);
  ++wheel_count_;
}

void Engine::enqueueOrdered(QEntry entry) {
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

Engine::Source Engine::peekNext(QEntry& entry) {
  // Drop dead entries from the overflow top first so the comparison below
  // sees a live candidate (or none).
  while (!overflow_.empty() && !node(overflow_.front().slot).armed) {
    releaseNode(overflow_.front().slot);
    heapPop(overflow_);
    ++dropped_tombstones_;
  }
  // Advance the cursor to the first bucket with a live entry.
  Source wheel = Source::kNone;
  while (wheel_count_ > 0) {
    wheel = cursorFront();
    if (wheel != Source::kNone) {
      entry = wheel == Source::kSameInstant
                  ? same_instant_[same_instant_head_]
                  : buckets_[base_ & kBucketMask].back();
      break;
    }
    ++base_;
  }
  if (!overflow_.empty() &&
      (wheel == Source::kNone || overflow_.front().firesBefore(entry))) {
    entry = overflow_.front();
    return Source::kOverflow;
  }
  return wheel;
}

Engine::Source Engine::cursorFront() {
  // The bucket is sorted once, when the cursor first reaches it.  Merged
  // with the same-instant FIFO, both in firing order, the earlier of the
  // two fronts is the bucket's front.
  auto& bucket = buckets_[base_ & kBucketMask];
  if (!bucket.empty() && base_ != sorted_bucket_) {
    std::sort(bucket.begin(), bucket.end(), kLaterFirst);
    sorted_bucket_ = base_;
  }
  for (;;) {
    const bool fifo =
        same_instant_head_ < same_instant_.size() &&
        (bucket.empty() ||
         same_instant_[same_instant_head_].firesBefore(bucket.back()));
    if (!fifo && bucket.empty()) return Source::kNone;
    const Source src = fifo ? Source::kSameInstant : Source::kBucket;
    const QEntry& front = fifo ? same_instant_[same_instant_head_]
                               : bucket.back();
    if (node(front.slot).armed) return src;
    releaseNode(front.slot);
    extract(src, front);
    ++dropped_tombstones_;
  }
}

void Engine::extract(Source src, const QEntry& entry) {
  switch (src) {
    case Source::kBucket: {
      auto& bucket = buckets_[base_ & kBucketMask];
      bucket.pop_back();
      --wheel_count_;
      // Warm the next victim's node line while this callback runs.
      if (!bucket.empty()) __builtin_prefetch(&node(bucket.back().slot));
      break;
    }
    case Source::kSameInstant:
      if (++same_instant_head_ == same_instant_.size()) {
        same_instant_.clear();
        same_instant_head_ = 0;
      }
      --wheel_count_;
      break;
    case Source::kOverflow:
      heapPop(overflow_);
      if (wheel_count_ == 0) {
        // All activity lives beyond the horizon; jump the cursor so future
        // enqueues near this time land in the wheel again.
        const std::uint64_t idx =
            static_cast<std::uint64_t>(entry.when) >> kBucketShift;
        if (idx > base_) base_ = idx;
      }
      break;
    case Source::kNone:
      break;
  }
}

SimTime Engine::nextEventTime() const {
  // Same-instant entries fire at now_, before anything else can.
  for (std::size_t i = same_instant_head_; i < same_instant_.size(); ++i) {
    if (node(same_instant_[i].slot).armed) return same_instant_[i].when;
  }
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
// Why canExtendRun is exact.  A run's members draw keys k1 < ... < kn, and
// its one queue entry is (when, k1).  Plain events would have fired them in
// key order; the run does the same, so the two differ only if some other
// event at `when` has a key between k1 and kn.  Such a key was drawn, and
// so filed (scheduling files at once), after k1's.  It was filed under
// bucketIndex(when) as it stood then, which lies between the mark's bucket
// and the bucket the new member files under (the cursor only moves
// forward).  canExtendRun demands those two be equal, so the intruder went
// to the mark's slot and moved its push count.  The same holds for the
// arguments a range takes on under one key: each would have been a member
// with its own key, and nothing could fall between them.

std::uint64_t Engine::scheduleRunHead(SimTime when, EventCallback fn,
                                      RunMark& mark) {
  at(when, std::move(fn));
  mark.when = when;
  mark.bucket = bucketIndex(when);
  mark.pushes = pushes_[mark.bucket & kBucketMask];
  return next_key_ - 1;
}

void Engine::enterRunMember(std::uint64_t key) {
  cur_key_ = key;
  --live_;
  ++executed_;
}

void Engine::requeueRun(SimTime when, std::uint64_t key, EventCallback fn,
                        bool entered) {
  const std::uint32_t slot = acquireNode();
  Node& n = node(slot);
  n.armed = true;
  n.fn = std::move(fn);
  if (entered) ++live_;
  // An old key: entries filed since may fire after it, so the same-instant
  // FIFO's tail is no place for it.
  enqueueOrdered(QEntry{when, key, slot});
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
  const Source src = peekNext(entry);
  if (src == Source::kNone) return false;
  extract(src, entry);
  run_limit_ = entry.when;
  fire(entry);
  cur_key_ = 0;
  return true;
}

SimTime Engine::run(SimTime until) {
  // Fused peek + extract + fire loop.  Equivalent to `while (step())` with
  // an `until` bound, but keeps the bucket reference and queue entry in
  // registers across the pop instead of re-deriving them per event, and
  // merges the same-instant FIFO only while it holds entries.
  run_limit_ = until;
  for (;;) {
    while (!overflow_.empty() && !node(overflow_.front().slot).armed) {
      releaseNode(overflow_.front().slot);
      heapPop(overflow_);
      ++dropped_tombstones_;
    }
    // Same-instant entries belong to the cursor's bucket, so while there
    // are any, the cursor stays; once they are gone, the walk is the plain
    // bucket walk.
    std::vector<QEntry>* bucket = nullptr;
    Source src = same_instant_.empty() ? Source::kNone : cursorFront();
    if (src != Source::kNone) bucket = &buckets_[base_ & kBucketMask];
    while (src == Source::kNone && wheel_count_ > 0) {
      // Every wheel entry is in a bucket now, so one lies ahead.
      while (buckets_[base_ & kBucketMask].empty()) ++base_;
      bucket = &buckets_[base_ & kBucketMask];
      if (base_ != sorted_bucket_) {
        std::sort(bucket->begin(), bucket->end(), kLaterFirst);
        sorted_bucket_ = base_;
      }
      while (!bucket->empty() && !node(bucket->back().slot).armed) {
        releaseNode(bucket->back().slot);
        bucket->pop_back();
        --wheel_count_;
        ++dropped_tombstones_;
      }
      if (!bucket->empty()) {
        src = Source::kBucket;
        break;
      }
      bucket = nullptr;
      ++base_;
    }
    if (bucket == nullptr) {
      if (overflow_.empty()) break;  // queue exhausted
      const QEntry entry = overflow_.front();
      if (entry.when > until) break;
      extract(Source::kOverflow, entry);
      fire(entry);
      continue;
    }
    const QEntry wheel_top = src == Source::kSameInstant
                                 ? same_instant_[same_instant_head_]
                                 : bucket->back();
    if (!overflow_.empty() && overflow_.front().firesBefore(wheel_top)) {
      const QEntry entry = overflow_.front();
      if (entry.when > until) break;
      heapPop(overflow_);
      fire(entry);
      continue;
    }
    if (wheel_top.when > until) break;
    if (src == Source::kSameInstant) {
      extract(src, wheel_top);
    } else {
      bucket->pop_back();
      --wheel_count_;
      // Warm the next victim's node line while this callback runs.
      if (!bucket->empty()) __builtin_prefetch(&node(bucket->back().slot));
    }
    fire(wheel_top);
  }
  cur_key_ = 0;
  if (now_ < until && until != INT64_MAX) now_ = until;
  return now_;
}

}  // namespace bcs::sim
