#pragma once

// Recycled storage for per-message state.
//
// A message in flight keeps its state (an Xfer-And-Signal request, a
// descriptor on the wire, an eager or collective payload) in a slot of a
// Slots<T> instead of a fresh heap block.  The callbacks that need it hold
// a Ref: the slot's address and the pool's, 16 bytes, so a callback
// capturing one still fits the 40-byte inline slot of sim::InlineFunction.
// When the last Ref to a slot goes (its callback ran, or was dropped unrun:
// a transfer lost with no failure callback, an event discarded when its
// engine dies) the slot's value is cleared and the slot is free again.
// Slots keep their storage, so a warm pool allocates nothing.  They are
// made in chunks that double up to kMaxChunk: a pool holds at most one
// chunk more than its peak, an unused one holds nothing, and a large one
// is a few blocks, not one per slot.
//
// Clearing calls T::clear() when T has one (a vector keeps its capacity
// that way), and otherwise assigns T{}.
//
// Lifetime: Refs may outlive the Slots that made them (engine events still
// queued when their owner dies).  The pool's state is then orphaned, not
// freed, and the last Ref frees it.  Single-threaded, like the engine that
// drives it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace bcs::sim {

template <typename T>
class Slots {
  struct Item {
    T value{};
    std::uint32_t refs = 0;
  };
  struct State {
    /// Chunks never move, so a value stays put while more slots are made,
    /// also while a callback that reads it runs.
    std::vector<std::unique_ptr<Item[]>> chunks;
    std::vector<Item*> free;
    std::size_t made = 0;    ///< slots in all chunks
    std::uint32_t held = 0;  ///< slots with at least one Ref
    bool orphaned = false;   ///< the Slots object is gone
  };

 public:
  static constexpr std::size_t kMaxChunk = 64;

  /// A counted reference to one slot.  Copies share the slot.
  class Ref {
   public:
    Ref() noexcept = default;
    Ref(const Ref& o) noexcept : st_(o.st_), item_(o.item_) {
      if (item_) ++item_->refs;
    }
    Ref(Ref&& o) noexcept
        : st_(o.st_), item_(std::exchange(o.item_, nullptr)) {}
    Ref& operator=(Ref o) noexcept {
      std::swap(st_, o.st_);
      std::swap(item_, o.item_);
      return *this;
    }
    ~Ref() {
      if (item_) drop(st_, item_);
    }

    T& operator*() const { return item_->value; }
    T* operator->() const { return &item_->value; }
    explicit operator bool() const { return item_ != nullptr; }

   private:
    friend class Slots;
    Ref(State* st, Item* item) noexcept : st_(st), item_(item) {}
    State* st_ = nullptr;
    Item* item_ = nullptr;
  };

  /// Allocates nothing until the first acquire().
  Slots() noexcept = default;
  Slots(Slots&& o) noexcept : st_(std::exchange(o.st_, nullptr)) {}
  Slots& operator=(Slots&& o) noexcept {
    if (this != &o) {
      abandon();
      st_ = std::exchange(o.st_, nullptr);
    }
    return *this;
  }
  ~Slots() { abandon(); }

  /// A free slot, holding a cleared value, and the first Ref to it.
  Ref acquire() {
    if (st_ == nullptr) st_ = new State;
    State& s = *st_;
    if (s.free.empty()) grow(s);
    Item* item = s.free.back();
    s.free.pop_back();
    item->refs = 1;
    ++s.held;
    return Ref(st_, item);
  }

  /// Slots made so far (held or free).
  std::size_t capacity() const { return st_ ? st_->made : 0; }
  /// Slots some Ref still holds.
  std::size_t inUse() const { return st_ ? st_->held : 0; }

 private:
  /// Frees the state, or leaves it to the last Ref.
  void abandon() noexcept {
    if (st_ == nullptr) return;
    if (st_->held == 0) {
      delete st_;
    } else {
      st_->orphaned = true;
    }
    st_ = nullptr;
  }

  static void grow(State& s) {
    const std::size_t n = std::clamp<std::size_t>(s.made, 1, kMaxChunk);
    s.chunks.push_back(std::make_unique<Item[]>(n));
    s.made += n;
    // Room for every slot, so freeing one never allocates.
    s.free.reserve(s.made);
    Item* const chunk = s.chunks.back().get();
    for (std::size_t i = n; i-- > 0;) s.free.push_back(chunk + i);
  }

  static void drop(State* s, Item* item) {
    if (--item->refs != 0) return;
    // Cleared while the slot still counts as held, so a Ref inside the
    // value that points into this same pool cannot free the state first.
    if constexpr (requires { item->value.clear(); }) {
      item->value.clear();
    } else {
      item->value = T{};
    }
    if (--s->held == 0 && s->orphaned) {
      delete s;
      return;
    }
    s->free.push_back(item);
  }

  State* st_ = nullptr;
};

}  // namespace bcs::sim
