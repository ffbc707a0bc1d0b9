#pragma once

// One engine event for many same-instant calls that share a body.
//
// An EventRun<Arg> owns one callback and files it with many integral
// arguments: `run.atRange(when, arg)` behaves exactly like
// `engine.at(when, [fn, arg] { fn(arg); })`, except where that event would
// fire right behind the range filed last and that range ends at arg - 1:
// the range then covers arg too, and no key is drawn.  The engine confirms
// "right behind" with a per-bucket push counter, so anything else filed
// under the same 2 µs bucket since the range's event simply starts a new
// range.
//
// A range of consecutive arguments is one event: it draws one key, counts
// as one pending and one executed event, and calls fn once per argument,
// in ascending order, under its key.  The calls are those plain events
// would have made, in the order they would have made them; only the key
// count and the event count fall.  A filing that cannot join (another
// instant, a gap in the arguments, or anything else filed at that instant
// since) starts a range of its own, an event under the key, pending count
// and firing position its plain event would have had.  A range whose call
// throws leaves its later arguments pending, as one event under its key,
// so the next run() continues exactly where plain events would.
//
// Ranges are not cancellable.  The flat BCS-MPI runtime's per-node NIC
// timers are the motivating use: one microstrobe reaches every node at one
// instant, and each node's NIC-thread completion falls due at the same
// instant as its neighbours', so one range releases a run of node ids
// (DESIGN.md §5b).

#include <concepts>
#include <utility>

#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/slots.hpp"

namespace bcs::sim {

template <std::integral Arg>
class EventRun {
 public:
  /// `fn` is called once per argument.  The EventRun must outlive its
  /// pending ranges.
  EventRun(Engine& engine, InlineFunction<void(Arg)> fn)
      : engine_(engine), fn_(std::move(fn)) {}
  EventRun(const EventRun&) = delete;
  EventRun& operator=(const EventRun&) = delete;

  /// Schedules fn(arg) at absolute time `when` (must be >= now()), in the
  /// range filed last where it can join it.
  void atRange(SimTime when, Arg arg) {
    if (open_ != nullptr && open_->end == arg &&
        engine_.canExtendRun(mark_, when)) {
      ++open_->end;
      return;
    }
    Ref ref = ranges_.acquire();
    Range* range = &*ref;
    *range = Range{arg, static_cast<Arg>(arg + 1)};
    engine_.scheduleRunHead(
        when, [this, ref = std::move(ref)] { fire(ref); }, mark_);
    open_ = range;
  }

  /// Schedules fn(arg) `delay` nanoseconds from now (delay >= 0).
  void afterRange(Duration delay, Arg arg) {
    if (delay < 0) Engine::failNegativeDelay();
    atRange(engine_.now() + delay, arg);
  }

 private:
  /// The arguments first, first + 1, ..., end - 1 still to be called.
  struct Range {
    Arg first;
    Arg end;
  };
  using Ref = typename Slots<Range>::Ref;

  // Callback of a range's event.  A call may extend this very range (at its
  // own instant), so the end is re-read after every call.
  void fire(const Ref& ref) {
    Range& r = *ref;
    while (r.first != r.end) {
      const Arg arg = r.first++;
#if defined(__cpp_exceptions)
      try {
        fn_(arg);
      } catch (...) {
        if (open_ == &r) open_ = nullptr;
        if (r.first != r.end) engine_.requeueRun([this, ref] { fire(ref); });
        throw;
      }
#else
      fn_(arg);
#endif
    }
    if (open_ == &r) open_ = nullptr;
  }

  Engine& engine_;
  InlineFunction<void(Arg)> fn_;
  /// Each pending range, held by its event's callback.  Slots are recycled,
  /// so a steady state allocates nothing.
  Slots<Range> ranges_;
  Range* open_ = nullptr;  ///< the range that may still take arguments
  Engine::RunMark mark_;   ///< where open_'s event was filed
};

}  // namespace bcs::sim
