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
// Members are not cancellable.  The flat BCS-MPI runtime's per-node NIC
// timers are the motivating use: one microstrobe reaches every node at one
// instant, and each node's NIC-thread completion falls due at the same
// instant as its neighbours' (DESIGN.md §5b).

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
  void at(SimTime when, Arg arg) {
    if (open_ != kNone) {
      const std::uint64_t key = engine_.extendRun(mark_, when);
      if (key != 0) {
        runs_[open_].push_back(Member{key, arg});
        return;
      }
    }
    const std::uint32_t r = acquireRun();
    const std::uint64_t key =
        engine_.scheduleRunHead(when, [this, r] { fire(r); }, mark_);
    runs_[r].push_back(Member{key, arg});
    open_ = r;
  }

  /// Schedules fn(arg) `delay` nanoseconds from now (delay >= 0).
  void after(Duration delay, Arg arg) {
    if (delay < 0) Engine::failNegativeDelay();
    at(engine_.now() + delay, arg);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Member {
    std::uint64_t key;
    Arg arg;
  };

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
  // order.  The engine has already entered the first one.  A member may
  // append to this very run (at its own instant), so the bound is re-read
  // after every call; runs_ may grow during a call, hence indices, not
  // references.
  void fire(std::uint32_t r) {
    std::size_t i = 0;
    for (;;) {
      const Arg arg = runs_[r][i].arg;
      ++i;
#if defined(__cpp_exceptions)
      try {
        fn_(arg);
      } catch (...) {
        std::vector<Member>& members = runs_[r];
        if (i < members.size()) {
          if (open_ == r) open_ = kNone;
          members.erase(members.begin(),
                        members.begin() + static_cast<std::ptrdiff_t>(i));
          engine_.requeueRun(engine_.now(), members.front().key,
                             [this, r] { fire(r); });
        } else {
          releaseRun(r);
        }
        throw;
      }
#else
      fn_(arg);
#endif
      if (i == runs_[r].size()) break;
      engine_.enterRunMember(runs_[r][i].key);
    }
    releaseRun(r);
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
