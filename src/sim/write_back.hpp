#pragma once

// Stores held back until the value is next used.
//
// A replayed quiescent slice (DESIGN.md §5b) writes the same fields as the
// replayed slice before it, over the same runs of nodes, only with later
// values, and nothing reads them until a slice does work, a watchdog runs
// or a snapshot is taken.  Writing them every slice costs O(nodes) for
// nothing.  A WriteBack<T, Store> holds a T and at most one pending Store:
// a replay sets the store instead of writing, the next replay replaces it,
// and the store runs on the value once, before the first access after it.
//
// Every access goes through operator* or operator->, const ones included,
// so no reader, writer or friend of the owner reaches the value without
// the stores deferred before it.  A reference taken that way must not be
// kept across a call that may defer a new store.
//
// Store is a callable `void(T&) const`.  defer() hands the caller the store
// to set, replacing a pending one, so the new store must overwrite
// everything the pending one would have; when it does not, settle() first.
// Single-threaded, like the engine that drives it.

#include <utility>

namespace bcs::sim {

template <typename T, typename Store>
class WriteBack {
 public:
  explicit WriteBack(T value) : value_(std::move(value)) {}

  /// The value, with the pending store applied first.
  T& operator*() {
    settle();
    return value_;
  }
  const T& operator*() const {
    settle();
    return value_;
  }
  T* operator->() { return &**this; }
  const T* operator->() const { return &**this; }

  /// The store to run before the next access, for the caller to set.
  Store& defer() {
    pending_ = true;
    return store_;
  }
  /// Runs the pending store, if there is one.  Const because the value an
  /// accessor returns is the same either way; only when the stores land
  /// changes.
  void settle() const {
    if (!pending_) [[likely]] return;
    pending_ = false;
    store_(value_);
  }

 private:
  mutable T value_;
  Store store_{};
  mutable bool pending_ = false;
};

}  // namespace bcs::sim
