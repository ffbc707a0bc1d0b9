#pragma once

// A freelist pool for byte-buffer payloads.
//
// Collective execution (and anything else shipping payload copies through
// the simulated fabric) used to allocate a fresh
// shared_ptr<vector<std::byte>> per hop; across thousands of slices that is
// pure allocator churn.  The pool hands out the same shared_ptr-based
// handles, but the control block's deleter returns the vector (capacity
// intact) to a freelist instead of freeing it.  Like the engine that drives
// it, the pool is single-threaded.
//
// Lifetime: the freelist state is itself held by shared_ptr and captured by
// every deleter, so handles may outlive the pool object (events still queued
// in the engine when the owning Runtime dies drop their buffers safely).
// The full post-mortem sequence, audited because it is easy to get wrong:
//   1. The pool object dies; `state_` drops one reference, but every live
//      handle's deleter still holds one, so State survives.
//   2. A handle released after that parks its buffer in the orphaned
//      State's freelist exactly as before — recycling still "works", the
//      buffer just has no pool left to hand it out again.
//   3. When the last handle dies, its deleter runs, then the captured
//      shared_ptr<State> releases the final reference; the freelist's
//      unique_ptrs free every parked buffer.  No step touches the dead
//      pool object, so there is no use-after-free window and no leak
//      (tests/test_sim.cpp pins this under the sanitize preset).
// The State keeps a count of outstanding handles (liveHandles()) so callers
// can observe the contract; every wrap() increments it and the deleter
// decrements it, whatever the pool's lifetime at release.

#include <cstddef>
#include <memory>
#include <vector>

namespace bcs::sim {

class PayloadPool {
 public:
  using Buffer = std::vector<std::byte>;
  using Ptr = std::shared_ptr<Buffer>;

  /// Retaining more spare buffers than any realistic fan-out needs just
  /// pins memory; beyond this the deleter lets buffers die normally.
  static constexpr std::size_t kMaxSpare = 64;

  PayloadPool() : state_(std::make_shared<State>()) {}

  /// An uninitialized (resized) buffer of `bytes` bytes.
  Ptr acquire(std::size_t bytes) {
    Buffer* raw = grab();
    raw->resize(bytes);
    return wrap(raw);
  }

  /// A buffer holding a copy of [data, data + bytes).
  Ptr acquire(const std::byte* data, std::size_t bytes) {
    Buffer* raw = grab();
    raw->assign(data, data + bytes);
    return wrap(raw);
  }

  /// Handles currently outstanding (acquired, deleter not yet run).  The
  /// count survives in the shared State, so it stays meaningful for
  /// handles that outlive the pool object.  Diagnostic use only.
  std::size_t liveHandles() const { return state_->live; }

  /// Spare buffers parked in the freelist.  Diagnostic use only.
  std::size_t spareBuffers() const { return state_->spare.size(); }

 private:
  struct State {
    std::vector<std::unique_ptr<Buffer>> spare;
    std::size_t live = 0;  // outstanding handles (see above)
  };

  Buffer* grab() {
    auto& spare = state_->spare;
    if (spare.empty()) return new Buffer();
    Buffer* raw = spare.back().release();
    spare.pop_back();
    return raw;
  }

  Ptr wrap(Buffer* raw) {
    ++state_->live;
    return Ptr(raw, [st = state_](Buffer* b) {
      --st->live;
      if (st->spare.size() < kMaxSpare) {
        b->clear();  // keeps capacity for the next acquire
        st->spare.emplace_back(b);
        return;
      }
      delete b;
    });
  }

  std::shared_ptr<State> state_;
};

}  // namespace bcs::sim
