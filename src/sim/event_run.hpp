#pragma once

// One engine event per instant for many callbacks that share a body.
//
// An EventRun<Arg> owns one callback and schedules it with many arguments:
// `run.at(when, arg)` behaves exactly like
// `engine.at(when, [fn, arg] { fn(arg); })`, except that consecutive calls
// for the same instant share one engine event and one queue entry (a
// "run") for as long as nothing else has been scheduled at that instant
// since the run's last member.  The engine confirms that with a per-bucket
// push counter, so anything else filed under the same 2 µs bucket simply
// starts a new run.
//
// Coalescing is invisible.  Each member draws the key its own at() would
// have drawn, counts as one pending and then one executed event, and runs
// with currentEventKey() equal to that key; the members of a run fire in
// key order, and no other event could have fired between them.  A member
// that throws leaves the rest pending under their own keys, so the next
// run() continues exactly where plain events would.
//
// Ranges.  For an integral Arg, `run.atRange(when, arg)` files fn(arg) the
// same way, except where at() would have added a member right behind one
// that ends at arg - 1: that member then covers arg too, and no key is
// drawn.  A range of consecutive arguments is one event: it draws one key,
// counts as one pending and one executed event, and calls fn once per
// argument, in ascending order, under its key.  The calls are those the
// members would have made, in the order they would have made them; only
// the key count and the event count fall.  A range that throws leaves its
// later arguments pending, as one event under its key.
//
// Members are not cancellable.  The flat BCS-MPI runtime's per-node NIC
// timers are the motivating use: one microstrobe reaches every node at one
// instant, and each node's NIC-thread completion falls due at the same
// instant as its neighbours', so one range releases a run of node ids
// (DESIGN.md §5b).

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_function.hpp"

namespace bcs::sim {

template <typename Arg>
class EventRun {
 public:
  /// `fn` is called once per member.  The EventRun must outlive its
  /// pending members.
  EventRun(Engine& engine, InlineFunction<void(Arg)> fn)
      : engine_(engine), fn_(std::move(fn)) {}
  EventRun(const EventRun&) = delete;
  EventRun& operator=(const EventRun&) = delete;

  /// Schedules fn(arg) at absolute time `when` (must be >= now()).
  void at(SimTime when, Arg arg) { file(when, arg, /*join=*/false); }

  /// Schedules fn(arg) `delay` nanoseconds from now (delay >= 0).
  void after(Duration delay, Arg arg) {
    if (delay < 0) Engine::failNegativeDelay();
    at(engine_.now() + delay, arg);
  }

  /// at(), but joining the range of the member it would follow when that
  /// range ends at arg - 1.
  void atRange(SimTime when, Arg arg)
    requires std::integral<Arg>
  {
    file(when, arg, /*join=*/true);
  }

  /// after() for atRange().
  void afterRange(Duration delay, Arg arg)
    requires std::integral<Arg>
  {
    if (delay < 0) Engine::failNegativeDelay();
    atRange(engine_.now() + delay, arg);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Arguments first, first + 1, ..., first + count - 1 under one key
  /// (count is 1 unless Arg is integral).
  struct Member {
    std::uint64_t key;
    Arg first;
    std::uint32_t count;
  };

  /// The argument `offset` places into a range starting at `first`.
  static Arg nth(Arg first, std::uint32_t offset) {
    if constexpr (std::integral<Arg>) {
      return static_cast<Arg>(first + static_cast<Arg>(offset));
    } else {
      return first;
    }
  }

  void file(SimTime when, Arg arg, bool join) {
    if (open_ != kNone && engine_.canExtendRun(mark_, when)) {
      std::vector<Member>& members = runs_[open_];
      Member& last = members.back();
      if (join && nth(last.first, last.count) == arg) {
        ++last.count;
        return;
      }
      members.push_back(Member{engine_.drawRunKey(), arg, 1});
      return;
    }
    const std::uint32_t r = acquireRun();
    const std::uint64_t key =
        engine_.scheduleRunHead(when, [this, r] { fire(r); }, mark_);
    runs_[r].push_back(Member{key, arg, 1});
    open_ = r;
  }

  std::uint32_t acquireRun() {
    if (free_.empty()) {
      runs_.emplace_back();
      return static_cast<std::uint32_t>(runs_.size() - 1);
    }
    const std::uint32_t r = free_.back();
    free_.pop_back();
    return r;
  }

  void releaseRun(std::uint32_t r) {
    if (open_ == r) open_ = kNone;
    runs_[r].clear();
    free_.push_back(r);
  }

  // Callback of run r's queue entry: fires its unfired members in key
  // order, each range in ascending order.  The engine has already entered
  // the first member.  A call may extend this very run (at its own
  // instant), so the bounds are re-read after every call; runs_ may grow
  // during a call, hence indices, not references.
  void fire(std::uint32_t r) {
    std::size_t i = 0;    // member
    std::uint32_t j = 0;  // argument within member i
    for (;;) {
      const Arg arg = nth(runs_[r][i].first, j);
#if defined(__cpp_exceptions)
      try {
        fn_(arg);
      } catch (...) {
        requeueAfterThrow(r, i, j);
        throw;
      }
#else
      fn_(arg);
#endif
      if (++j < runs_[r][i].count) continue;
      j = 0;
      if (++i == runs_[r].size()) break;
      engine_.enterRunMember(runs_[r][i].key);
    }
    releaseRun(r);
  }

  // Argument j of member i threw: what is left of its range stays pending
  // under the range's key (it was entered, so it is pending again), and
  // the members behind it under their own.
  void requeueAfterThrow(std::uint32_t r, std::size_t i, std::uint32_t j) {
    std::vector<Member>& members = runs_[r];
    Member& m = members[i];
    const bool range_left = j + 1 < m.count;
    if (range_left) {
      m.first = nth(m.first, j + 1);
      m.count -= j + 1;
    }
    const std::size_t keep = range_left ? i : i + 1;
    if (keep == members.size()) {
      releaseRun(r);
      return;
    }
    if (open_ == r) open_ = kNone;
    members.erase(members.begin(),
                  members.begin() + static_cast<std::ptrdiff_t>(keep));
    engine_.requeueRun(engine_.now(), members.front().key,
                       [this, r] { fire(r); }, /*entered=*/range_left);
  }

  Engine& engine_;
  InlineFunction<void(Arg)> fn_;
  /// Each run's unfired members in key order, by run slot.  Slots are
  /// recycled with their capacity, so a steady state allocates nothing.
  std::vector<std::vector<Member>> runs_;
  std::vector<std::uint32_t> free_;  ///< recycled run slots
  std::uint32_t open_ = kNone;  ///< the run that may still take members
  Engine::RunMark mark_;        ///< where open_'s queue entry was filed
};

}  // namespace bcs::sim
