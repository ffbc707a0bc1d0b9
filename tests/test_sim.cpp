// Unit tests for the simulation substrate: engine, fibers, CPU model,
// noise injection, RNG, statistics and the flat map.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/event_run.hpp"
#include "sim/fiber.hpp"
#include "sim/flat_map.hpp"
#include "sim/noise.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/slots.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "cpu_reference.hpp"

namespace {

using namespace bcs::sim;

// ---------------------------------------------------------------- Engine --

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(usec(30), [&] { order.push_back(3); });
  eng.at(usec(10), [&] { order.push_back(1); });
  eng.at(usec(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), usec(30));
}

TEST(Engine, TiesBreakInInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.at(usec(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, AfterSchedulesRelativeToNow) {
  Engine eng;
  SimTime fired = -1;
  eng.at(usec(10), [&] { eng.after(usec(5), [&] { fired = eng.now(); }); });
  eng.run();
  EXPECT_EQ(fired, usec(15));
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool ran = false;
  EventId id = eng.at(usec(10), [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // double-cancel reports failure
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.executedEvents(), 0u);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.at(usec(10.0 * i), [&] { ++count; });
  }
  eng.run(usec(50));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), usec(50));
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.at(usec(10), [&] {
    EXPECT_THROW(eng.at(usec(5), [] {}), SimError);
  });
  eng.run();
}

TEST(Engine, EventsScheduledDuringEventRun) {
  Engine eng;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) eng.after(usec(1), recurse);
  };
  eng.at(0, recurse);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.now(), usec(99));
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine eng;
  int count = 0;
  eng.at(usec(1), [&] { ++count; });
  eng.at(usec(2), [&] { ++count; });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(count, 2);
}

// A callback that throws out of step() leaves no current event behind, and
// the next event still runs under its own key.
TEST(Engine, ThrowingEventLeavesNoCurrentKey) {
  Engine eng;
  std::uint64_t seen = 0;
  eng.at(usec(1), [] { throw std::runtime_error("event threw"); });
  eng.at(usec(2), [&] { seen = eng.currentEventKey(); });
  EXPECT_THROW(eng.step(), std::runtime_error);
  EXPECT_EQ(eng.currentEventKey(), 0u);
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(eng.currentEventKey(), 0u);
}

// The calendar queue's wheel buckets are 2048 ns wide: events on either
// side of a multiple of 2048 ns land in different buckets, same-instant
// events in the same one.  Ordering must come out by (time, insertion)
// regardless of bucket placement.
TEST(Engine, CalendarTieOrderAcrossBucketBoundaries) {
  Engine eng;
  std::vector<int> order;
  // Interleave insertions across three times straddling the bucket edge at
  // 4096 ns (the start of the third bucket), plus exact ties at that edge
  // and at 8192 ns (the start of the fifth).
  eng.at(nsec(4097), [&] { order.push_back(3); });
  eng.at(nsec(4095), [&] { order.push_back(1); });
  eng.at(nsec(4096), [&] { order.push_back(2); });
  eng.at(nsec(8192), [&] { order.push_back(5); });
  eng.at(nsec(8192), [&] { order.push_back(6); });  // tie: insertion order
  eng.at(nsec(4097), [&] { order.push_back(4); });  // tie: insertion order
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

// After the wheel cursor has advanced far beyond one full lap, a slot index
// is reused by a much later bucket; events and cancellations must still
// resolve against the right occupants.
TEST(Engine, CancelAfterWheelRollover) {
  Engine eng;
  int fired = 0;
  // Advance well past one wheel lap (256 buckets * 2048 ns ≈ 524 us).
  eng.at(msec(20), [&] { ++fired; });
  eng.run();
  ASSERT_EQ(fired, 1);
  // A handle from before the rollover epoch must not cancel the new
  // occupant of its reused slot.
  EventId stale{};
  stale = eng.at(msec(25), [&] { ++fired; });
  EXPECT_TRUE(eng.cancel(stale));
  EventId fresh = eng.at(msec(25), [&] { ++fired; });
  EXPECT_FALSE(eng.cancel(stale));  // stale handle, slot likely reused
  eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(eng.cancel(fresh));  // already fired
}

// At a fresh engine the wheel covers [0, 256 * 2048 ns): an event at the
// horizon or later goes to the overflow heap.  Order must not care which
// side of the edge an event landed on, including a tie between a wheel
// entry and an overflow entry, and including events that an overflow-fired
// event schedules back into the wheel after the cursor has jumped.
TEST(Engine, HorizonEdgeOrdersAcrossWheelAndOverflow) {
  constexpr SimTime kHorizon = nsec(256 * 2048);
  Engine eng;
  std::vector<int> order;
  eng.at(kHorizon + 1, [&] { order.push_back(6); });  // overflow
  eng.at(kHorizon, [&] { order.push_back(2); });      // overflow
  eng.at(kHorizon - 1, [&] { order.push_back(1); });  // wheel, last bucket
  eng.at(kHorizon, [&] { order.push_back(3); });      // tie: insertion order
  eng.at(kHorizon, [&] {
    order.push_back(4);
    // The cursor jumped to the horizon's bucket when the overflow heap
    // fired, so both of these land in the wheel.  The first runs next
    // (nothing else is left at kHorizon); the second ties with the overflow
    // entry at kHorizon + 1 and, drawn later, fires after it.
    eng.at(kHorizon, [&] { order.push_back(5); });
    eng.after(nsec(1), [&] { order.push_back(7); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(eng.now(), kHorizon + 1);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

// Events beyond the wheel horizon land in the overflow heap; they must
// interleave correctly with near-future events and with events scheduled
// after the cursor has jumped forward.
TEST(Engine, FarFutureOverflowOrdering) {
  Engine eng;
  std::vector<int> order;
  eng.at(sec(2), [&] { order.push_back(4); });     // far overflow
  eng.at(usec(5), [&] { order.push_back(1); });    // wheel
  eng.at(msec(500), [&] { order.push_back(3); });  // overflow
  eng.at(msec(1), [&] { order.push_back(2); });    // wheel
  // From the 500 ms event, schedule near-future work that must precede the
  // 2 s overflow event even though the cursor just jumped.
  eng.at(msec(500), [&] {
    eng.after(usec(10), [&] { order.push_back(35); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 35, 4}));
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

// pendingEvents() counts live events only; cancelled entries are dropped
// lazily and reported through droppedTombstones().
TEST(Engine, PendingCountsLiveEventsAndTombstonesAreObservable) {
  Engine eng;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(eng.at(usec(10 + i), [] {}));
  }
  EXPECT_EQ(eng.pendingEvents(), 8u);
  for (int i = 0; i < 8; i += 2) eng.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(eng.pendingEvents(), 4u);  // live only, despite queued tombstones
  EXPECT_EQ(eng.cancelledEvents(), 4u);
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(eng.executedEvents(), 4u);
  EXPECT_EQ(eng.droppedTombstones(), 4u);  // reclaimed during the run
}

// nextEventTime() reports the earliest queue entry without touching the
// queue: wheel entries, a cancelled wheel entry (skipped), overflow entries,
// a cancelled overflow top (reported: the query may only err early), and
// both sides of the wheel horizon.
TEST(Engine, NextEventTimeIsConservativeAndTouchesNothing) {
  constexpr SimTime kEdge = nsec(256 * 2048);  // wheel horizon at time 0
  Engine eng;
  EXPECT_EQ(eng.nextEventTime(), INT64_MAX);
  const EventId far = eng.at(kEdge + 5, [] {});  // overflow
  EXPECT_EQ(eng.nextEventTime(), kEdge + 5);
  eng.at(kEdge, [] {});  // overflow: the horizon itself
  EXPECT_EQ(eng.nextEventTime(), kEdge);
  eng.at(kEdge - 1, [] {});  // wheel, last bucket
  EXPECT_EQ(eng.nextEventTime(), kEdge - 1);
  const EventId near = eng.at(usec(3), [] {});
  eng.at(usec(7), [] {});
  EXPECT_EQ(eng.nextEventTime(), usec(3));
  EXPECT_TRUE(eng.cancel(near));  // a wheel tombstone is skipped
  EXPECT_EQ(eng.nextEventTime(), usec(7));
  EXPECT_EQ(eng.droppedTombstones(), 0u);  // and not reclaimed
  EXPECT_EQ(eng.pendingEvents(), 4u);

  // From inside a callback: a late arrival at now() lands in the cursor's
  // own bucket and is seen.
  SimTime asked = 0;
  eng.at(usec(7), [&] {
    eng.at(eng.now(), [] {});
    asked = eng.nextEventTime();
  });
  eng.run(usec(7));
  EXPECT_EQ(asked, usec(7));
  EXPECT_EQ(eng.nextEventTime(), kEdge - 1);
  eng.run(kEdge);
  EXPECT_EQ(eng.nextEventTime(), kEdge + 5);

  // Only the cancelled overflow top is left: reported, never reclaimed by
  // asking.
  EXPECT_TRUE(eng.cancel(far));
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_EQ(eng.nextEventTime(), kEdge + 5);
  const std::uint64_t dropped = eng.droppedTombstones();
  EXPECT_EQ(eng.nextEventTime(), kEdge + 5);
  EXPECT_EQ(eng.droppedTombstones(), dropped);
  eng.run();
  EXPECT_EQ(eng.droppedTombstones(), dropped + 1);
  EXPECT_EQ(eng.nextEventTime(), INT64_MAX);
}

// runLimit() is the bound of the run() in progress, and the firing entry's
// own time under step().
TEST(Engine, RunLimitIsTheBoundOfTheRunInProgress) {
  Engine eng;
  std::vector<SimTime> limits;
  const auto note = [&] { limits.push_back(eng.runLimit()); };
  eng.at(usec(1), note);
  eng.at(usec(2), note);
  eng.at(usec(9), note);
  eng.run(usec(5));
  EXPECT_EQ(limits, (std::vector<SimTime>{usec(5), usec(5)}));
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(limits.back(), usec(9));
}

// Callables larger than the inline slot take the heap fallback; both paths
// must run and destruct correctly.
TEST(Engine, LargeCallbacksUseHeapFallbackCorrectly) {
  Engine eng;
  std::array<std::uint64_t, 16> big{};  // 128 B: beyond the inline slot
  big.fill(7);
  std::uint64_t sum = 0;
  eng.at(usec(1), [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  auto cancelled = eng.at(usec(2), [big, &sum] { sum += big[0]; });
  eng.cancel(cancelled);  // heap callable destroyed on cancel, not leaked
  eng.run();
  EXPECT_EQ(sum, 7u * 16u);
}

// ------------------------------------------------- same-instant arrivals --
//
// An event filed at now() draws the largest key so far, so it fires after
// every entry already queued at that instant and before the next instant;
// the engine appends it to a same-instant FIFO instead of inserting it into
// the sorted bucket being drained.

constexpr int kArrivals = 4096;
constexpr SimTime kInstant = usec(5);

/// One callback at kInstant files kArrivals events at now(); entries
/// already queued at kInstant, at kInstant + 1 ns (one from the callback
/// itself, filed before the arrivals) and beyond the wheel horizon surround
/// them.  Logs ids and keys as they fire.
struct ArrivalScript {
  Engine eng;
  std::vector<int> order;
  std::vector<std::uint64_t> keys;

  ArrivalScript() {
    eng.at(kInstant, [this] {
      log(0);
      eng.at(eng.now() + 1, [this] { log(5); });
      for (int i = 0; i < kArrivals; ++i) {
        eng.at(eng.now(), [this, i] { log(100 + i); });
      }
    });
    eng.at(kInstant, [this] { log(1); });
    eng.at(kInstant + 1, [this] { log(2); });
    eng.at(kInstant, [this] { log(3); });
    eng.at(kInstant + msec(1), [this] { log(4); });
  }
  void log(int id) {
    order.push_back(id);
    keys.push_back(eng.currentEventKey());
  }
  /// The ids that fire at kInstant, in firing order.
  static std::vector<int> atInstant() {
    std::vector<int> ids = {0, 1, 3};
    for (int i = 0; i < kArrivals; ++i) ids.push_back(100 + i);
    return ids;
  }
  static std::vector<int> all() {
    std::vector<int> ids = atInstant();
    ids.insert(ids.end(), {2, 5, 4});
    return ids;
  }
  /// The firings at kInstant run in key order.
  void expectKeysAscend() const {
    for (std::size_t i = 1; i < atInstant().size(); ++i) {
      ASSERT_LT(keys[i - 1], keys[i]) << "at firing " << i;
    }
  }
};

TEST(Engine, SameInstantArrivalsFireInKeyOrderUnderRun) {
  ArrivalScript s;
  s.eng.run();
  EXPECT_EQ(s.order, ArrivalScript::all());
  s.expectKeysAscend();
  EXPECT_EQ(s.eng.pendingEvents(), 0u);
}

TEST(Engine, SameInstantArrivalsFireInKeyOrderUnderRunUntil) {
  ArrivalScript s;
  s.eng.run(kInstant);
  EXPECT_EQ(s.order, ArrivalScript::atInstant());  // all before the bound
  EXPECT_EQ(s.eng.pendingEvents(), 3u);
  s.eng.run();
  EXPECT_EQ(s.order, ArrivalScript::all());
  s.expectKeysAscend();
}

TEST(Engine, SameInstantArrivalsFireInKeyOrderUnderStep) {
  ArrivalScript s;
  std::size_t steps = 0;
  while (s.eng.step()) {
    ++steps;
    EXPECT_EQ(s.order.size(), steps);  // one entry per step
  }
  EXPECT_EQ(s.order, ArrivalScript::all());
  s.expectKeysAscend();
}

// Cancelled same-instant entries are skipped, whether first, inside or
// last in line, and reclaimed into droppedTombstones() as the walk
// reaches them.
TEST(Engine, CancelledSameInstantEntriesAreDroppedAndCounted) {
  Engine eng;
  std::vector<int> fired;
  eng.at(usec(1), [&] {
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(eng.at(eng.now(), [&fired, i] { fired.push_back(i); }));
    }
    for (int i : {0, 2, 3, 5}) EXPECT_TRUE(eng.cancel(ids[i]));
    EXPECT_EQ(eng.pendingEvents(), 3u);  // two of them and the one at 2 us
  });
  eng.at(usec(2), [&] { fired.push_back(9); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 4, 9}));
  EXPECT_EQ(eng.cancelledEvents(), 4u);
  EXPECT_EQ(eng.droppedTombstones(), 4u);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

// While a same-instant entry is pending, the earliest pending instant is
// now(): a slice replay asking at that point declines.  A cancelled one
// no longer counts.
TEST(Engine, NextEventTimeSeesPendingSameInstantEntries) {
  Engine eng;
  SimTime pending_at = 0;
  SimTime cancelled_at = 0;
  eng.at(usec(10), [] {});
  eng.at(usec(3), [&] {
    const EventId id = eng.at(eng.now(), [] {});
    pending_at = eng.nextEventTime();
    EXPECT_TRUE(eng.cancel(id));
    cancelled_at = eng.nextEventTime();
  });
  eng.run();
  EXPECT_EQ(pending_at, usec(3));
  EXPECT_EQ(cancelled_at, usec(10));
}

// ------------------------------------------------------- EventRun ranges --
//
// Twin engines run one script: on the range twin members are filed through
// EventRun::atRange, on the plain twin each member is an event through
// Engine::at.  Every callback logs what it sees of its engine.  A range
// draws one key and counts as one event, so what the twins must agree on
// is what ranges may not change: which callbacks fire, in which order, at
// which instants.

/// What one callback sees of its engine.
struct Seen {
  std::int64_t id;
  SimTime now;
  std::uint64_t key;
  std::uint64_t executed;
  std::size_t pending;
  bool operator==(const Seen&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Seen& s) {
  return os << "{id " << s.id << " @" << s.now << " key " << s.key
            << " executed " << s.executed << " pending " << s.pending << "}";
}

/// Something a callback schedules when it fires: a member or a plain
/// event `delay` after now.
struct Spawn {
  bool member;
  Duration delay;
  std::int64_t id;
};

using Script = std::function<std::vector<Spawn>(std::int64_t id)>;

/// (id, now) of one callback.
using Firing = std::pair<std::int64_t, SimTime>;

constexpr SimTime kHorizon = nsec(256 * 2048);  // wheel horizon at time 0

class RangeTwin {
 public:
  RangeTwin(bool ranges, Script script, std::int64_t throw_id = -1)
      : ranges_(ranges),
        script_(std::move(script)),
        throw_id_(throw_id),
        run_(eng, [this](std::int64_t id) { fired(id); }) {}

  void schedule(bool member, SimTime when, std::int64_t id) {
    if (member && ranges_) {
      run_.atRange(when, id);
    } else {
      eng.at(when, [this, id] { fired(id); });
    }
  }

  /// The (id, now) of every callback so far.
  std::vector<Firing> firings() const {
    std::vector<Firing> out;
    for (const Seen& s : seen) out.emplace_back(s.id, s.now);
    return out;
  }

  /// Callbacks that fired under one key are one range: consecutive ids in
  /// ascending order.  Within an instant, keys ascend.
  void expectRangesWellFormed() const {
    for (std::size_t i = 1; i < seen.size(); ++i) {
      if (seen[i].key == seen[i - 1].key) {
        EXPECT_EQ(seen[i].id, seen[i - 1].id + 1) << "at firing " << i;
      }
      if (seen[i].now == seen[i - 1].now) {
        EXPECT_LE(seen[i - 1].key, seen[i].key) << "at firing " << i;
      }
    }
  }

  Engine eng;
  std::vector<Seen> seen;
  /// When set, every callback asks nextEventTime() after its spawns.
  bool ask = false;
  std::vector<SimTime> asked;

 private:
  void fired(std::int64_t id) {
    seen.push_back(Seen{id, eng.now(), eng.currentEventKey(),
                        eng.executedEvents(), eng.pendingEvents()});
    for (const Spawn& s : script_(id)) {
      schedule(s.member, eng.now() + s.delay, s.id);
    }
    if (ask) asked.push_back(eng.nextEventTime());
    if (id == throw_id_) throw std::runtime_error("range threw");
  }

  bool ranges_;
  Script script_;
  std::int64_t throw_id_;
  EventRun<std::int64_t> run_;
};

/// Schedules `initial` (member?, when, id) on both twins before any run.
void seedTwins(RangeTwin& a, RangeTwin& b,
               const std::vector<std::tuple<bool, SimTime, std::int64_t>>&
                   initial) {
  for (const auto& [member, when, id] : initial) {
    a.schedule(member, when, id);
    b.schedule(member, when, id);
  }
}

/// Runs both twins to the end and compares what fired.
void runTwins(RangeTwin& ranges, RangeTwin& plain) {
  ranges.eng.run();
  plain.eng.run();
  EXPECT_EQ(ranges.firings(), plain.firings());
  ranges.expectRangesWellFormed();
  EXPECT_EQ(ranges.eng.now(), plain.eng.now());
  EXPECT_EQ(ranges.eng.pendingEvents(), 0u);
}

const Script kNoSpawns = [](std::int64_t) { return std::vector<Spawn>{}; };

TEST(EventRunRange, ConsecutiveArgumentsAtOneInstantAreOneEvent) {
  constexpr std::int64_t kMembers = 31;
  RangeTwin ranges(true, kNoSpawns);
  RangeTwin plain(false, kNoSpawns);
  for (std::int64_t id = 0; id < kMembers; ++id) {
    ranges.schedule(true, usec(60), id);
    plain.schedule(true, usec(60), id);
  }
  EXPECT_EQ(ranges.eng.pendingEvents(), 1u);
  ASSERT_TRUE(ranges.eng.step());
  EXPECT_FALSE(ranges.eng.step());
  EXPECT_EQ(ranges.eng.executedEvents(), 1u);
  ASSERT_EQ(ranges.seen.size(), static_cast<std::size_t>(kMembers));
  for (const Seen& s : ranges.seen) EXPECT_EQ(s.key, 1u);
  plain.eng.run();
  EXPECT_EQ(ranges.firings(), plain.firings());
  EXPECT_LT(ranges.eng.poolSlots(), plain.eng.poolSlots());
}

// A filing at the open range's instant that does not continue it (a gap,
// a step back, or a plain event filed in between) is an event of its own,
// under the key a plain at() draws at that point.
TEST(EventRunRange, NonConsecutiveArgumentIsItsOwnEvent) {
  Engine eng;
  std::vector<std::pair<std::int64_t, std::uint64_t>> seen;  // (id, key)
  EventRun<std::int64_t> run(eng, [&](std::int64_t id) {
    seen.emplace_back(id, eng.currentEventKey());
  });
  run.atRange(usec(4), 5);
  run.atRange(usec(4), 6);   // joins 5
  run.atRange(usec(4), 9);   // a gap
  run.atRange(usec(4), 10);  // joins 9
  eng.at(usec(4), [&] { seen.emplace_back(-1, eng.currentEventKey()); });
  run.atRange(usec(4), 11);  // follows 10, but behind the plain event
  run.atRange(usec(4), 8);   // a step back
  EXPECT_EQ(eng.pendingEvents(), 5u);
  eng.run();
  const std::vector<std::pair<std::int64_t, std::uint64_t>> want = {
      {5, 1}, {6, 1}, {9, 2}, {10, 2}, {-1, 3}, {11, 4}, {8, 5}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(eng.executedEvents(), 5u);
}

// An argument joins a range only right behind it: a plain event filed at
// the range's instant in between fires between the two, as it would among
// plain events.
TEST(EventRunRange, JoinsOnlyRightBehindTheRangeFiledLast) {
  const Script script = [](std::int64_t id) -> std::vector<Spawn> {
    if (id != 1) return {};
    return {{true, usec(3), 10}, {false, usec(3), 99}, {true, usec(3), 11},
            {true, usec(3), 12}, {true, usec(4), 13}, {true, usec(3), 14}};
  };
  RangeTwin ranges(true, script);
  RangeTwin plain(false, script);
  seedTwins(ranges, plain, {{false, usec(1), 1}});
  runTwins(ranges, plain);
  ASSERT_EQ(ranges.seen.size(), 7u);
  EXPECT_EQ(ranges.seen[2].id, 99);
  // 10, then 11-12 as one range, then 13 and 14 on their own.
  EXPECT_EQ(ranges.eng.executedEvents(), 6u);
}

// The cases the exactness argument (engine.cpp) has to get right: ranges
// filed at now() into the bucket being drained, a plain event filed
// between two consecutive arguments, a call that files at its own instant
// (it joins the range filed last, or the very range that is firing it),
// both sides of a bucket edge, the wheel horizon and the overflow heap
// beyond it, and a range that an overflow-fired range files back into the
// wheel after the cursor jumped.
TEST(EventRunRange, EdgeCasesMatchPlainEvents) {
  const Script script = [](std::int64_t id) -> std::vector<Spawn> {
    switch (id) {
      case 1:  // plain, at 3000 ns: ranges into the bucket being drained
        return {{true, 0, 10}, {true, 0, 11}, {false, 0, 90},
                {true, 0, 12}, {true, 5, 13}, {true, 0, 14}};
      case 10:  // joins the range 14 opened, then a plain event intrudes
        return {{true, 0, 15}, {false, 0, 91}, {true, 0, 16}};
      case 16:  // joins the range that is firing it, twice
        return {{true, 0, 17}};
      case 17:
        return {{true, 0, 18}};
      case 60:  // beyond the horizon: re-enters the wheel at its instant
        return {{true, 0, 63}, {true, 0, 64}, {true, nsec(2048), 65}};
      default:
        return {};
    }
  };
  RangeTwin ranges(true, script);
  RangeTwin plain(false, script);
  seedTwins(ranges, plain,
            {{false, nsec(3000), 1},
             {true, nsec(4095), 2},
             {true, nsec(4096), 3},
             {true, nsec(4095), 4},
             {true, nsec(4096), 5},
             {true, nsec(4096), 6},
             {true, kHorizon - 1, 40},
             {true, kHorizon, 41},
             {true, kHorizon, 42},
             {false, kHorizon, 93},
             {true, kHorizon, 43},
             {true, kHorizon + 1, 44},
             {true, msec(3), 60},
             {true, msec(3), 61},
             {false, msec(3), 94},
             {true, msec(3), 62}});
  runTwins(ranges, plain);
  EXPECT_EQ(ranges.seen.size(), 30u);
  // Ranges: 10-11, 14-15, 16-18, 5-6, 41-42, 60-61 and 63-64.
  EXPECT_EQ(ranges.eng.executedEvents(), plain.eng.executedEvents() - 8);
}

// A range filed in the overflow heap can fire after the cursor has moved
// past its bucket (a later wheel event pulled the cursor on).  Anything
// then scheduled at the range's instant is filed under the cursor's
// bucket, so the range must not take an argument from its own firing
// callback after that.
TEST(EventRunRange, OverflowRangeFiringBehindTheCursor) {
  constexpr SimTime kLate = kHorizon + usec(10);  // four buckets further
  const Script script = [](std::int64_t id) -> std::vector<Spawn> {
    if (id == 1) return {{false, kLate - usec(300), 2}};
    if (id == 3) return {{false, 0, 90}, {true, 0, 4}};
    return {};
  };
  RangeTwin ranges(true, script);
  RangeTwin plain(false, script);
  seedTwins(ranges, plain, {{false, usec(300), 1}, {true, kHorizon + 100, 3}});
  runTwins(ranges, plain);
  ASSERT_EQ(ranges.seen.size(), 5u);
  EXPECT_EQ(ranges.seen[2].id, 90);  // the plain event filed in between
}

/// A seeded random script: every callback spawns up to three members or
/// plain events, at delays chosen to collide on instants, bucket edges and
/// the horizon.  Children of id are 16 * id + 1..3, to depth five.
Script soupScript(std::uint64_t seed) {
  return [seed](std::int64_t id) {
    static constexpr std::array<Duration, 8> kDelays = {
        0, 0, 0, 1, 2047, 2048, usec(60), kHorizon};
    std::vector<Spawn> out;
    if (id >= 16 * 16 * 16 * 16) return out;
    std::uint64_t state = seed ^ (static_cast<std::uint64_t>(id) << 20);
    const std::uint64_t h = splitmix64(state);
    const int n = static_cast<int>(h % 4);
    for (int j = 0; j < n; ++j) {
      const std::uint64_t bits = h >> (8 + 8 * j);
      out.push_back(Spawn{(bits & 3) != 0, kDelays[(bits >> 2) & 7],
                          16 * id + j + 1});
    }
    return out;
  };
}

TEST(EventRunRange, SeededSoupMatchesPlainEvents) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RangeTwin ranges(true, soupScript(seed));
    RangeTwin plain(false, soupScript(seed));
    std::vector<std::tuple<bool, SimTime, std::int64_t>> roots;
    for (std::int64_t r = 1; r <= 15; ++r) {
      roots.emplace_back(r % 4 != 0, nsec(2048) * (r % 3) + (r % 2), r);
    }
    seedTwins(ranges, plain, roots);
    SCOPED_TRACE(seed);
    runTwins(ranges, plain);
    EXPECT_GT(ranges.seen.size(), 15u);
  }
}

// Twin engines run one soup of plain events; on one of them every callback
// asks nextEventTime().  Asking must change nothing either twin sees, and
// the answer must lie between now and the instant that fires next.
TEST(Engine, NextEventTimeQueryChangesNothingLater) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RangeTwin asks(false, soupScript(seed));
    RangeTwin plain(false, soupScript(seed));
    asks.ask = true;
    std::vector<std::tuple<bool, SimTime, std::int64_t>> roots;
    for (std::int64_t r = 1; r <= 15; ++r) {
      roots.emplace_back(false, nsec(2048) * (r % 3) + (r % 2), r);
    }
    seedTwins(asks, plain, roots);
    asks.eng.run();
    plain.eng.run();
    EXPECT_EQ(asks.seen, plain.seen) << "seed " << seed;
    ASSERT_EQ(asks.asked.size(), asks.seen.size());
    for (std::size_t i = 0; i + 1 < asks.seen.size(); ++i) {
      EXPECT_GE(asks.asked[i], asks.seen[i].now) << "seed " << seed;
      EXPECT_LE(asks.asked[i], asks.seen[i + 1].now) << "seed " << seed;
    }
    EXPECT_EQ(asks.asked.back(), INT64_MAX) << "seed " << seed;
  }
}

// Ranges and plain events filed at now() interleave in the same-instant
// FIFO exactly as plain events would, behind the entries already queued at
// that instant and ahead of the next instant.
TEST(EventRunRange, SameInstantRangesAndPlainEventsKeepTheirOrder) {
  const Script script = [](std::int64_t id) -> std::vector<Spawn> {
    if (id != 1) return {};
    std::vector<Spawn> out;
    for (std::int64_t i = 0; i < 64; ++i) {
      out.push_back(Spawn{i % 3 != 0, 0, 100 + i});
    }
    return out;
  };
  RangeTwin ranges(true, script);
  RangeTwin plain(false, script);
  seedTwins(ranges, plain,
            {{false, usec(5), 1},
             {true, usec(5), 2},
             {false, usec(5), 3},
             {true, usec(5) + 1, 4}});
  runTwins(ranges, plain);
  ASSERT_EQ(ranges.seen.size(), 68u);
  EXPECT_EQ(ranges.seen[3].id, 100);
  EXPECT_EQ(ranges.seen.back().id, 4);
  // 22 plain events among 21 two-member ranges.
  EXPECT_EQ(ranges.eng.executedEvents(), 4u + 22u + 21u);
}

/// Bursts of consecutive ids: a callback spawns up to two bursts of one to
/// four members at one delay each, sometimes with a plain event among them
/// or after them at the same instant.  Member children of id are
/// 16 * id + 1.., to depth three; plain events are leaves.
Script burstScript(std::uint64_t seed) {
  return [seed](std::int64_t id) {
    static constexpr std::array<Duration, 6> kDelays = {
        0, 0, 1, 2047, usec(60), kHorizon};
    constexpr std::int64_t kLeaf = std::int64_t{1} << 40;
    std::vector<Spawn> out;
    if (id >= 16 * 16 * 16) return out;
    std::uint64_t state = seed ^ (static_cast<std::uint64_t>(id) << 20);
    const std::uint64_t h = splitmix64(state);
    std::int64_t child = 16 * id + 1;
    for (int b = 0; b < 2; ++b) {
      const std::uint64_t bits = h >> (16 * b);
      const int members = static_cast<int>(bits & 3) + (b == 0 ? 1 : 0);
      const Duration delay = kDelays[(bits >> 2) % kDelays.size()];
      const int plain_at = static_cast<int>((bits >> 5) & 7);
      for (int m = 0; m < members; ++m) {
        if (m == plain_at) out.push_back(Spawn{false, delay, kLeaf + child});
        out.push_back(Spawn{true, delay, child++});
      }
    }
    return out;
  };
}

TEST(EventRunRange, SeededBurstsFireAsPlainEvents) {
  std::uint64_t range_events = 0;
  std::uint64_t plain_events = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RangeTwin ranges(true, burstScript(seed));
    RangeTwin plain(false, burstScript(seed));
    for (std::int64_t r = 1; r <= 6; ++r) {
      const SimTime when = nsec(2048) * (r % 3) + (r % 2);
      ranges.schedule(r % 3 != 0, when, r);
      plain.schedule(r % 3 != 0, when, r);
    }
    SCOPED_TRACE(seed);
    runTwins(ranges, plain);
    EXPECT_GT(ranges.seen.size(), 30u);
    range_events += ranges.eng.executedEvents();
    plain_events += plain.eng.executedEvents();
  }
  EXPECT_LT(range_events, plain_events);
}

// A range whose call throws leaves its later arguments pending as one
// event under its key; the events behind it keep theirs.  A second run()
// fires them where plain events would.
TEST(EventRunRange, ThrowingRangeLeavesItsRestPending) {
  const Script script = [](std::int64_t id) -> std::vector<Spawn> {
    if (id == 3) {
      return {{true, 0, 7}, {false, 0, 20}, {true, 0, 8}, {true, usec(1), 9}};
    }
    return {};
  };
  RangeTwin ranges(true, script, /*throw_id=*/3);
  RangeTwin plain(false, script, /*throw_id=*/3);
  std::vector<std::tuple<bool, SimTime, std::int64_t>> initial;
  for (std::int64_t id = 1; id <= 6; ++id) {
    initial.emplace_back(true, usec(7), id);
  }
  initial.emplace_back(false, usec(7), 30);
  initial.emplace_back(true, usec(9), 40);
  seedTwins(ranges, plain, initial);
  EXPECT_THROW(ranges.eng.run(), std::runtime_error);
  EXPECT_THROW(plain.eng.run(), std::runtime_error);
  EXPECT_EQ(ranges.firings(), plain.firings());
  ASSERT_EQ(ranges.seen.back().id, 3);
  // 4..6 pending as one range under key 1, then 30, 40, 7, 20, 8 and 9.
  EXPECT_EQ(ranges.eng.pendingEvents(), 7u);
  EXPECT_EQ(plain.eng.pendingEvents(), 9u);
  EXPECT_EQ(ranges.eng.currentEventKey(), 0u);
  EXPECT_EQ(plain.eng.currentEventKey(), 0u);
  runTwins(ranges, plain);
  EXPECT_EQ(ranges.seen.size(), 12u);
  EXPECT_EQ(ranges.seen[3].key, 1u);  // 4 fires under the range's key
  EXPECT_EQ(ranges.eng.executedEvents(), 8u);
}

// ---------------------------------------------------------------- Fiber --

TEST(Fiber, RunsToCompletionAcrossResumes) {
  int stage = 0;
  Fiber f([&] {
    stage = 1;
    f.yield();
    stage = 2;
  });
  EXPECT_EQ(stage, 0);
  f.resume();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, DestructionUnwindsUnfinishedBody) {
  bool unwound = false;
  {
    Fiber* self = nullptr;
    Fiber g([&] {
      struct S {
        bool* u;
        ~S() { *u = true; }
      } s{&unwound};
      self->yield();
      self->yield();
    });
    self = &g;
    g.resume();  // now parked inside first yield
  }              // destructor force-unwinds
  EXPECT_TRUE(unwound);
}

// A fiber destroyed before its first resume never runs its body.
TEST(Fiber, ImmediateDestructionWithoutResumeIsClean) {
  for (int i = 0; i < 200; ++i) {
    bool ran = false;
    {
      Fiber f([&] { ran = true; });
    }  // destroyed before any resume: body must never start
    EXPECT_FALSE(ran);
  }
}

// The first resume right after construction runs the body exactly once.
TEST(Fiber, ResumeImmediatelyAfterConstructionRuns) {
  for (int i = 0; i < 200; ++i) {
    int runs = 0;
    Fiber f([&] { ++runs; });
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(runs, 1);
  }
}

// Rapid resume-once-then-destroy cycles: every body parked in yield() is
// unwound by its destructor, and every stack is released.
TEST(Fiber, ResumeThenDestroyLoopUnwindsEveryBody) {
  int unwound = 0;
  for (int i = 0; i < 100; ++i) {
    Fiber* self = nullptr;
    Fiber f([&] {
      struct S {
        int* u;
        ~S() { ++*u; }
      } s{&unwound};
      self->yield();
    });
    self = &f;
    f.resume();  // parked in yield; destructor must kill + join cleanly
  }
  EXPECT_EQ(unwound, 100);
}

TEST(Fiber, ExceptionAfterYieldPropagatesOnSecondResume) {
  Fiber f([&f] {
    f.yield();
    throw std::runtime_error("late boom");
  });
  f.resume();
  EXPECT_FALSE(f.finished());
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

// Reads the calling thread's id.  pthread_self is declared const, so a read
// made after a yield could reuse one made before it; the out-of-line call
// with an opaque body keeps every read fresh.
[[gnu::noinline]] std::thread::id runningThread() {
  asm volatile("" ::: "memory");
  return std::this_thread::get_id();
}

TEST(Fiber, RunsOnWhicheverThreadResumesIt) {
  std::array<std::thread::id, 3> ran_on{};
  Fiber* self = nullptr;
  Fiber f([&] {
    ran_on[0] = runningThread();
    self->yield();
    ran_on[1] = runningThread();
    self->yield();
    ran_on[2] = runningThread();
  });
  self = &f;
  f.resume();  // first segment: this thread
  std::thread::id helper;
  std::thread t([&] {
    helper = std::this_thread::get_id();
    f.resume();  // second segment: the helper thread
  });
  t.join();
  f.resume();  // last segment: back on this thread
  EXPECT_TRUE(f.finished());
  EXPECT_NE(helper, std::this_thread::get_id());
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_EQ(ran_on[1], helper);
  EXPECT_EQ(ran_on[2], std::this_thread::get_id());
}

// The page a fiber's body starts in: the top page of the stack it runs on.
[[gnu::noinline]] std::uintptr_t stackTopPage() {
  char local = 0;
  asm volatile("" : : "r"(&local) : "memory");
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  return reinterpret_cast<std::uintptr_t>(&local) & ~(page - 1);
}

// Stacks are recycled: a fiber started after another died runs on the
// stack that one handed back, and no new stack is mapped for it.
TEST(Fiber, StackIsReusedAfterTheFiberDies) {
  std::uintptr_t first = 0;
  {
    Fiber f([&] { first = stackTopPage(); });
    f.resume();
  }
  const std::size_t mapped = Fiber::stacksMapped();
  for (int i = 0; i < 50; ++i) {
    std::uintptr_t again = 0;
    Fiber g([&] { again = stackTopPage(); });
    g.resume();
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(Fiber::stacksMapped(), mapped);
}

// Parks a body `depth` frames deep, each frame holding an array (and so, under
// ASan, poisoned redzones around it), so that killing it leaves frames the
// body never returned from.
[[gnu::noinline]] void parkDeep(Fiber& self, int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth > 0) {
    parkDeep(self, depth - 1);
  } else {
    self.yield();
  }
  frame[sizeof frame - 1] = frame[0];
}

[[gnu::noinline]] int touchStack(int depth) {
  volatile char frame[4096];
  for (std::size_t i = 0; i < sizeof frame; ++i) {
    frame[i] = static_cast<char>(i + static_cast<std::size_t>(depth));
  }
  return depth > 0 ? touchStack(depth - 1) + frame[7] : frame[7];
}

// A stack released by a fiber killed mid-body runs the next body cleanly:
// no redzone of the dead frames survives into it (ASan builds check this).
TEST(Fiber, KilledFibersStackRunsANewBodyCleanly) {
  std::uintptr_t killed_on = 0;
  {
    Fiber* self = nullptr;
    Fiber f([&] {
      killed_on = stackTopPage();
      parkDeep(*self, 32);
    });
    self = &f;
    f.resume();  // parked 32 frames deep; the destructor kills it
  }
  const std::size_t mapped = Fiber::stacksMapped();
  std::uintptr_t ran_on = 0;
  int result = 0;
  Fiber g([&] {
    ran_on = stackTopPage();
    result = touchStack(16);
  });
  g.resume();
  EXPECT_TRUE(g.finished());
  EXPECT_EQ(ran_on, killed_on);
  EXPECT_EQ(Fiber::stacksMapped(), mapped);
  EXPECT_NE(result, 0);
}

// The free list is shared by every thread: a stack a fiber released on one
// thread serves the next fiber started on another.
TEST(Fiber, StackReleasedOnOneThreadIsReusedOnAnother) {
  std::uintptr_t released = 0;
  std::thread t([&] {
    Fiber f([&] { released = stackTopPage(); });
    f.resume();
  });  // f dies on the helper thread
  t.join();
  const std::size_t mapped = Fiber::stacksMapped();
  std::uintptr_t reused = 0;
  Fiber g([&] { reused = stackTopPage(); });
  g.resume();
  EXPECT_NE(released, 0u);
  EXPECT_EQ(reused, released);
  EXPECT_EQ(Fiber::stacksMapped(), mapped);
}

constexpr std::uintptr_t kFiberStack = std::uintptr_t{8} << 20;
constexpr int kGuardHit = 42;
constexpr int kFaultElsewhere = 43;
constexpr int kNotRecycled = 44;
std::uintptr_t g_page = 0;
std::uintptr_t g_fiber_local = 0;  // a local in the stack's topmost page

void exitOnFault(int, siginfo_t* info, void*) {
  // The stack ends at the page boundary above g_fiber_local, and its guard
  // page is the one page right below its 8 MiB.
  const std::uintptr_t top = (g_fiber_local & ~(g_page - 1)) + g_page;
  const std::uintptr_t guard = top - kFiberStack - g_page;
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  _exit(addr >= guard && addr < guard + g_page ? kGuardHit : kFaultElsewhere);
}

// One touched 1 KiB frame per level, so the descent cannot step over the
// guard page; the add after the call keeps it from becoming a loop.
[[gnu::noinline]] int recurseForever(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  frame[sizeof frame - 1] = frame[0];
  if (depth < 0) return 0;
  return recurseForever(depth + 1) + frame[0];
}

/// Overflows a fiber's stack.  With `recycled`, another fiber runs and
/// dies first, and the overflowing one must run on the stack it released.
void overflowFiberStack(bool recycled = false) {
  static std::array<char, 64 * 1024> alt_stack;
  stack_t ss{};
  ss.ss_sp = alt_stack.data();
  ss.ss_size = alt_stack.size();
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = exitOnFault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  g_page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  std::uintptr_t released = 0;
  std::size_t mapped = 0;
  if (recycled) {
    Fiber first([&released] { released = stackTopPage(); });
    first.resume();
    mapped = Fiber::stacksMapped();
  }
  Fiber f([released, mapped] {
    char local = 0;
    g_fiber_local = reinterpret_cast<std::uintptr_t>(&local);
    if (released != 0 && (stackTopPage() != released ||
                          Fiber::stacksMapped() != mapped)) {
      _exit(kNotRecycled);
    }
    recurseForever(local);
  });
  f.resume();
}

TEST(FiberDeathTest, StackOverflowFaultsOnGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(overflowFiberStack(), ::testing::ExitedWithCode(kGuardHit), "");
}

// A recycled stack keeps its guard page.
TEST(FiberDeathTest, StackOverflowOnARecycledStackFaultsOnGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(overflowFiberStack(/*recycled=*/true),
              ::testing::ExitedWithCode(kGuardHit), "");
}

// ------------------------------------------------------------------ CPU --

TEST(Cpu, SingleTaskRunsAtFullSpeed) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  SimTime done_at = -1;
  cpu.submit(msec(5), CpuScheduler::Priority::kUser,
             [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(done_at, msec(5));
}

TEST(Cpu, TwoTasksOnTwoCpusDoNotInterfere) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  SimTime a = -1, b = -1;
  cpu.submit(msec(5), CpuScheduler::Priority::kUser, [&] { a = eng.now(); });
  cpu.submit(msec(3), CpuScheduler::Priority::kUser, [&] { b = eng.now(); });
  eng.run();
  EXPECT_EQ(a, msec(5));
  EXPECT_EQ(b, msec(3));
}

TEST(Cpu, ThreeTasksOnTwoCpusShare) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  std::vector<SimTime> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    cpu.submit(msec(6), CpuScheduler::Priority::kUser,
               [&, i] { done[static_cast<std::size_t>(i)] = eng.now(); });
  }
  eng.run();
  // 18 ms of demand over 2 CPUs, all equal: everyone finishes at 9 ms.
  for (auto t : done) EXPECT_NEAR(static_cast<double>(t), msec(9), 1e3);
}

TEST(Cpu, DaemonPreemptsUserWork) {
  Engine eng;
  CpuScheduler cpu(eng, 1);
  SimTime user_done = -1;
  cpu.submit(msec(4), CpuScheduler::Priority::kUser,
             [&] { user_done = eng.now(); });
  // Dæmon grabs the single CPU for 1 ms starting immediately.
  cpu.submit(msec(1), CpuScheduler::Priority::kDaemon, nullptr);
  eng.run();
  EXPECT_NEAR(static_cast<double>(user_done), msec(5), 1e3);
}

TEST(Cpu, FrozenTaskMakesNoProgress) {
  Engine eng;
  CpuScheduler cpu(eng, 1);
  SimTime done = -1;
  CpuTaskId id = cpu.submit(msec(2), CpuScheduler::Priority::kUser,
                            [&] { done = eng.now(); });
  eng.at(msec(1), [&] { cpu.setRunnable(id, false); });
  eng.at(msec(3), [&] { cpu.setRunnable(id, true); });
  eng.run();
  // 1 ms progress, frozen 2 ms, then remaining 1 ms.
  EXPECT_NEAR(static_cast<double>(done), msec(4), 1e3);
}

TEST(Cpu, CancelDropsCompletion) {
  Engine eng;
  CpuScheduler cpu(eng, 1);
  bool fired = false;
  CpuTaskId id =
      cpu.submit(msec(2), CpuScheduler::Priority::kUser, [&] { fired = true; });
  eng.at(msec(1), [&] { cpu.cancel(id); });
  eng.run();
  EXPECT_FALSE(fired);
}

// ------------------------------------------------- CPU vs its reference --

// The flat task table must reproduce the std::map scheduler it replaced
// (tests/cpu_reference.hpp) exactly: the same completion instants in the
// same callback order, the same remaining() and activeTasks() readings and
// the same userCpuTimeDelivered(), bit for bit.  Seeded soups mix user and
// dæmon tasks, zero-work tasks, freezes, cancels and completions that land
// at one instant (equal work submitted together).
class CpuEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

namespace cpu_soup {

struct Action {
  enum Kind { kSubmit, kFreeze, kThaw, kCancel, kProbe } kind = kSubmit;
  SimTime at = 0;
  int task = 0;  ///< script task the action names
  Duration work = 0;
  bool daemon = false;
  bool with_callback = true;
};

/// What one side observed: (instant, what, task, value) rows, the value's
/// bits for doubles.
using Log = std::vector<std::tuple<SimTime, int, int, std::uint64_t>>;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<Action> script(std::uint64_t seed, int cpus) {
  Rng rng(seed);
  std::vector<Action> actions;
  int submitted = 0;
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    // A coarse grid makes several actions share an instant.
    if (rng.below(3) != 0) t += usec(50) * static_cast<SimTime>(rng.below(4));
    Action a;
    a.at = t;
    const std::uint64_t pick = submitted == 0 ? 0 : rng.below(10);
    if (pick < 4) {
      a.kind = Action::kSubmit;
      a.task = submitted++;
      a.daemon = rng.below(5) == 0;
      a.with_callback = !a.daemon || rng.below(2) == 0;
      // Zero work, grid-sized work (equal tasks finish together) or odd
      // amounts that leave fractional remainders.
      switch (rng.below(4)) {
        case 0: a.work = 0; break;
        case 1: a.work = usec(100) * static_cast<Duration>(1 + rng.below(4)); break;
        default: a.work = static_cast<Duration>(1 + rng.below(700'000)); break;
      }
      // A burst of identical siblings at the same instant.
      if (rng.below(6) == 0) {
        for (int k = 0; k < cpus + 1; ++k) {
          actions.push_back(a);
          a.task = submitted++;
        }
      }
    } else {
      a.task = static_cast<int>(rng.below(static_cast<std::uint64_t>(submitted)));
      a.kind = pick < 6   ? Action::kFreeze
               : pick < 7 ? Action::kThaw
               : pick < 8 ? Action::kCancel
                          : Action::kProbe;
    }
    actions.push_back(a);
  }
  return actions;
}

template <class Scheduler>
Log run(const std::vector<Action>& actions, int cpus) {
  Engine eng;
  Scheduler cpu(eng, cpus);
  std::vector<CpuTaskId> ids(actions.size());
  Log log;
  const auto probe = [&](int task) {
    log.emplace_back(eng.now(), 1, task,
                     static_cast<std::uint64_t>(
                         cpu.remaining(ids[static_cast<std::size_t>(task)])));
    log.emplace_back(eng.now(), 2, task,
                     static_cast<std::uint64_t>(cpu.activeTasks()));
    log.emplace_back(eng.now(), 3, task, bits(cpu.userCpuTimeDelivered()));
  };
  for (const Action& a : actions) {
    eng.at(a.at, [&, a] {
      const auto id = ids[static_cast<std::size_t>(a.task)];
      switch (a.kind) {
        case Action::kSubmit: {
          const auto prio = a.daemon ? Scheduler::Priority::kDaemon
                                     : Scheduler::Priority::kUser;
          const int task = a.task;
          if (a.with_callback) {
            ids[static_cast<std::size_t>(task)] =
                cpu.submit(a.work, prio, [&log, &eng, task] {
                  log.emplace_back(eng.now(), 0, task, 0);
                });
          } else {
            ids[static_cast<std::size_t>(task)] =
                cpu.submit(a.work, prio, nullptr);
          }
          break;
        }
        case Action::kFreeze: cpu.setRunnable(id, false); break;
        case Action::kThaw: cpu.setRunnable(id, true); break;
        case Action::kCancel: cpu.cancel(id); break;
        case Action::kProbe: probe(a.task); break;
      }
    });
  }
  // Thaw everything at the end so every task not cancelled completes.
  const SimTime end = actions.back().at + msec(1);
  eng.at(end, [&] {
    for (const CpuTaskId id : ids) {
      if (id.valid()) cpu.setRunnable(id, true);
    }
  });
  eng.run();
  log.emplace_back(eng.now(), 4, -1, bits(cpu.userCpuTimeDelivered()));
  log.emplace_back(eng.now(), 5, -1, eng.executedEvents());
  return log;
}

}  // namespace cpu_soup

TEST_P(CpuEquivalence, FlatTableReproducesTheMapScheduler) {
  for (const int cpus : {1, 2, 3}) {
    const auto actions = cpu_soup::script(GetParam(), cpus);
    const auto expected =
        cpu_soup::run<reference::CpuScheduler>(actions, cpus);
    const auto actual = cpu_soup::run<CpuScheduler>(actions, cpus);
    ASSERT_EQ(actual, expected) << "seed " << GetParam() << ", " << cpus
                                << " CPUs";
    // The soup exercised what it is meant to.
    std::size_t completions = 0;
    std::set<SimTime> instants;
    for (const auto& [at, what, task, value] : expected) {
      if (what != 0) continue;
      ++completions;
      instants.insert(at);
    }
    EXPECT_GT(completions, 100u);
    EXPECT_LT(instants.size(), completions) << "no shared instants";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuEquivalence,
                         ::testing::Values(1u, 7u, 42u, 2026u, 31337u,
                                           8675309u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// -------------------------------------------------------------- Process --

TEST(Process, ComputeAdvancesSimTime) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  SimTime end = -1;
  Process p(eng, cpu, 0, "p", [&](Process& self) {
    self.compute(msec(2));
    self.compute(msec(3));
    end = self.now();
  });
  p.start(usec(100));
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(end, usec(100) + msec(5));
  EXPECT_EQ(p.totalComputeRequested(), msec(5));
}

TEST(Process, BlockWakeRoundTrip) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  SimTime resumed_at = -1;
  Process p(eng, cpu, 0, "p", [&](Process& self) {
    self.block();
    resumed_at = self.now();
  });
  p.start(0);
  eng.at(msec(7), [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(resumed_at, msec(7));
}

TEST(Process, WakeBeforeBlockBanksPermit) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  bool done = false;
  Process p(eng, cpu, 0, "p", [&](Process& self) {
    self.block();  // a permit was banked before we blocked: returns at once
    done = true;
  });
  eng.at(0, [&] { p.wake(); });        // banks a permit (process not started)
  p.start(usec(10));
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(eng.now(), usec(10));  // never actually suspended
}

TEST(Process, ComputeIsImmuneToStrayWakes) {
  // Regression test: a runtime may wake() processes at every slice boundary
  // whether or not they are blocked.  Banked permits must not cut a
  // compute() short (this once truncated 2 ms of work to 1 ms).
  Engine eng;
  CpuScheduler cpu(eng, 2);
  SimTime end = -1;
  Process p(eng, cpu, 0, "p", [&](Process& self) {
    self.compute(msec(2));
    end = self.now();
  });
  p.start(0);
  for (int i = 1; i <= 5; ++i) {
    eng.at(usec(100 * i), [&] { p.wake(); });  // spurious wakes mid-compute
  }
  eng.run();
  EXPECT_EQ(end, msec(2));
}

TEST(Process, TwoProcessesPingPong) {
  Engine eng;
  CpuScheduler cpu(eng, 2);
  std::vector<int> log;
  Process* pa = nullptr;
  Process* pb = nullptr;
  Process a(eng, cpu, 0, "a", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log.push_back(1);
      pb->wake();
      self.block();
    }
    pb->wake();
  });
  Process b(eng, cpu, 0, "b", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      self.block();
      log.push_back(2);
      pa->wake();
    }
  });
  pa = &a;
  pb = &b;
  a.start(0);
  b.start(0);
  eng.run();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(log, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

// ---------------------------------------------------------------- Noise --

TEST(Noise, StealsCpuFromUserTask) {
  Engine eng;
  CpuScheduler cpu(eng, 1);
  NoiseConfig nc;
  nc.period = msec(10);
  nc.duration = msec(1);
  nc.jitter = 0.0;
  nc.coordinated = true;  // deterministic phase
  NoiseInjector noise(eng, cpu, nc, 1);
  noise.start(0);
  SimTime done = -1;
  cpu.submit(msec(50), CpuScheduler::Priority::kUser,
             [&] { done = eng.now(); });
  eng.run(msec(200));
  ASSERT_GT(done, 0);
  // ~1 ms stolen per 10 ms: 50 ms of work needs ~55-56 ms of wall time.
  EXPECT_GT(done, msec(54));
  EXPECT_LT(done, msec(58));
  EXPECT_GE(noise.activations(), 5u);
}

// ------------------------------------------------------------ RNG/Stats --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(2);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(r.exponential(5.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.2);
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
  EXPECT_EQ(h.total(), 100u);
}

TEST(TraceTest, RecordsAndCounts) {
  Trace t;
  t.record(0, TraceCategory::kNet, 0, "dropped (disabled)");
  EXPECT_EQ(t.records().size(), 0u);
  t.enable();
  t.record(usec(1), TraceCategory::kStrobe, 3, "microstrobe DEM");
  t.record(usec(2), TraceCategory::kDma, 1, "get 4096B");
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.count([](const TraceRecord& r) {
              return r.category == TraceCategory::kStrobe;
            }),
            1u);
  EXPECT_NE(t.dump().find("microstrobe"), std::string::npos);
}

// dumpBytes() is dump().size(), kept as records arrive (snapshot captures
// store it instead of rendering the trace).
TEST(TraceTest, DumpBytesTracksTheDump) {
  Trace t;
  t.record(usec(1), TraceCategory::kNet, 0, "dropped (disabled)");
  EXPECT_EQ(t.dumpBytes(), 0u);
  t.enable();
  t.record(0, TraceCategory::kEngine, -1, "");
  t.record(999, TraceCategory::kStrobe, 3, "microstrobe DEM");
  t.record(usec(12) + 345, TraceCategory::kEpochRace, 1234, "race");
  t.record(msec(7), TraceCategory::kFailover, 0, std::string(300, 'x'));
  t.record(sec(3) + 17, TraceCategory::kDma, 2047, "get 4096B");
  EXPECT_EQ(t.dumpBytes(), t.dump().size());
  t.clear();
  EXPECT_EQ(t.dumpBytes(), 0u);
  EXPECT_EQ(t.dump().size(), 0u);
  t.record(usec(2), TraceCategory::kApp, 7, "after clear");
  EXPECT_EQ(t.dumpBytes(), t.dump().size());
}

TEST(TimeFormat, HumanReadable) {
  EXPECT_EQ(formatTime(500), "500 ns");
  EXPECT_NE(formatTime(usec(12)).find("us"), std::string::npos);
  EXPECT_NE(formatTime(msec(3)).find("ms"), std::string::npos);
  EXPECT_NE(formatTime(sec(2)).find(" s"), std::string::npos);
}

// ----------------------------------------------------------------- Arena --
// The engine's event-node pool and the payload pool.  These run under the
// sanitize preset (label: arena), so unreleased nodes or buffers show up as
// leaks there.

/// Drives `chains` event chains of `rounds` rounds each and returns the
/// engine's final pool-slot count.
std::uint32_t runChains(Engine& eng, int chains, int rounds) {
  auto step = std::make_shared<std::function<void(int, int)>>();
  auto* stepp = step.get();
  int count = 0;
  *step = [&eng, stepp, &count, rounds](int c, int round) {
    ++count;
    if (round + 1 < rounds) {
      eng.at(eng.now() + usec(7), [stepp, c, round] { (*stepp)(c, round + 1); });
    }
  };
  const SimTime base = eng.now();  // a rerun starts where the last ended
  for (int c = 0; c < chains; ++c) {
    eng.at(base + usec(c), [step, c] { (*step)(c, 0); });
  }
  eng.run();
  EXPECT_EQ(count, chains * rounds);
  return eng.poolSlots();
}

TEST(Arena, ArenasResetBetweenRuns) {
  // A second identical run on the same engine reuses the released slots
  // instead of acquiring fresh ones.
  Engine eng;
  const std::uint32_t first = runChains(eng, 3, 100);
  const std::uint32_t second = runChains(eng, 3, 100);
  EXPECT_EQ(second, first);
}

TEST(Arena, ExhaustionGrowsChunkTable) {
  // More simultaneously-live events than one 1,024-node chunk holds force
  // the node pool through its chunk-growth path; every event must still
  // fire.
  Engine eng;
  int count = 0;
  constexpr int kLive = 5000;
  for (int i = 0; i < kLive; ++i) {
    eng.at(usec(1) + i, [&count] { ++count; });
  }
  eng.run();
  EXPECT_EQ(count, kLive);
  EXPECT_GE(eng.poolSlots(), static_cast<std::uint32_t>(kLive));
}

TEST(Arena, SlotsHoldAtMostOneChunkBeyondTheirPeak) {
  // Collective payloads burst: 200 buffers held at once, then all freed.
  // The slots made for the burst stay (a second burst of the same size
  // makes none), and their count exceeds the peak by less than one chunk.
  Slots<std::vector<std::byte>> payloads;
  std::vector<Slots<std::vector<std::byte>>::Ref> held;
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 200; ++i) {
      held.push_back(payloads.acquire());
      held.back()->resize(32);
    }
    EXPECT_EQ(payloads.inUse(), 200u);
    held.clear();
    EXPECT_EQ(payloads.inUse(), 0u);
    EXPECT_GE(payloads.capacity(), 200u);
    EXPECT_LT(payloads.capacity(),
              200u + Slots<std::vector<std::byte>>::kMaxChunk);
  }
  EXPECT_EQ(payloads.capacity(), 256u);  // chunks of 1, 1, 2, 4, ..., 64
}

TEST(Arena, SlotsRecycleAndClearTheirValues) {
  struct Msg {
    std::vector<int> data;
    int tag = 0;
    void clear() {
      data.clear();
      tag = 0;
    }
  };
  Slots<Msg> slots;
  EXPECT_EQ(slots.capacity(), 0u);  // nothing allocated until first use
  {
    Slots<Msg>::Ref a = slots.acquire();
    a->data.assign(100, 7);
    a->tag = 3;
    Slots<Msg>::Ref b = a;  // a second holder of the same slot
    a = Slots<Msg>::Ref{};
    EXPECT_EQ(slots.inUse(), 1u);
    EXPECT_EQ(b->tag, 3);
  }
  EXPECT_EQ(slots.inUse(), 0u);
  EXPECT_EQ(slots.capacity(), 1u);
  // The freed slot comes back cleared, with its vector's capacity.
  Slots<Msg>::Ref c = slots.acquire();
  EXPECT_EQ(slots.capacity(), 1u);
  EXPECT_EQ(c->tag, 0);
  EXPECT_TRUE(c->data.empty());
  EXPECT_GE(c->data.capacity(), 100u);
  // A value without clear() is reset to T{}.
  Slots<std::pair<int, int>> pairs;
  { auto p = pairs.acquire(); *p = {1, 2}; }
  EXPECT_EQ(*pairs.acquire(), (std::pair<int, int>{0, 0}));
}

TEST(Arena, SlotRefsOutlivingTheirPoolFreeItLast) {
  // Engine events that hold Refs are dropped after the pool died: the last
  // Ref frees the orphaned state (leak- and use-after-free-checked under
  // the sanitize preset).  A Ref inside a slot of the same pool is dropped
  // while that slot is cleared, which must not free the state early.
  using Inner = Slots<std::vector<int>>;
  struct Holder {
    Inner::Ref other;
  };
  auto eng = std::make_unique<Engine>();
  auto slots = std::make_unique<Inner>();
  auto holders = std::make_unique<Slots<Holder>>();
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    Inner::Ref r = slots->acquire();
    r->assign(16, i);
    Slots<Holder>::Ref h = holders->acquire();
    h->other = r;
    eng->at(usec(10 + i), [r, &fired] { fired += (*r)[0] >= 0 ? 1 : 0; });
    eng->at(usec(50), [h = std::move(h)] {});
  }
  eng->run(usec(12));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(slots->inUse(), 8u);
  slots.reset();
  holders.reset();
  eng.reset();  // drops the rest unrun
}

// --------------------------------------------------------------- FlatMap --

/// A value that counts the moves of live entries (id != 0): the release of
/// an erased slot moves a default value and is not counted.
struct MoveCounted {
  static inline int moves = 0;
  int id = 0;
  MoveCounted() = default;
  explicit MoveCounted(int i) : id(i) {}
  MoveCounted(MoveCounted&& o) noexcept : id(std::exchange(o.id, 0)) {
    moves += id != 0 ? 1 : 0;
  }
  MoveCounted& operator=(MoveCounted&& o) noexcept {
    id = std::exchange(o.id, 0);
    moves += id != 0 ? 1 : 0;
    return *this;
  }
};

TEST(FlatMap, EraseMovesOnlyTheNearerSide) {
  FlatMap<int, MoveCounted> map;
  for (int k = 1; k <= 1000; ++k) map.emplace(k, MoveCounted(k));
  const auto erase = [&map](int k) {
    MoveCounted::moves = 0;
    EXPECT_EQ(map.erase(k), 1u);
    return MoveCounted::moves;
  };
  EXPECT_LE(erase(2), 1);      // the 2nd of 1,000: the one before it moves
  EXPECT_EQ(erase(1), 0);      // the first entry only advances the front
  EXPECT_LE(erase(999), 1);    // the one after it moves
  EXPECT_LE(erase(500), 498);  // the middle: one side, never both
  ASSERT_EQ(map.size(), 996u);
  int want = 3;
  for (const auto& [k, v] : map) {
    while (want == 500 || want == 999) ++want;
    EXPECT_EQ(k, want);
    EXPECT_EQ(v.id, want);
    ++want;
  }
  EXPECT_EQ(want, 1001);
}

TEST(FlatMap, EraseAnywhereKeepsOrderAndReturnsTheNext) {
  // Erases at the front, inside the front half, inside the back half and
  // at the back, across the compaction of the dead front, against
  // std::map.
  FlatMap<int, int> map;
  std::map<int, int> ref;
  for (int k = 0; k < 64; ++k) {
    map.emplace(k * 3, k);
    ref.emplace(k * 3, k);
  }
  std::uint64_t lcg = 12345;
  int refills = 0;
  while (!ref.empty()) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    auto at = ref.begin();
    std::advance(at, static_cast<long>((lcg >> 33) % ref.size()));
    const auto it = map.find(at->first);
    ASSERT_NE(it, map.end());
    const auto next = map.erase(it);
    const auto ref_next = ref.erase(at);
    if (ref_next == ref.end()) {
      EXPECT_EQ(next, map.end());
    } else {
      ASSERT_NE(next, map.end());
      EXPECT_EQ(next->first, ref_next->first);
    }
    ASSERT_EQ(map.size(), ref.size());
    EXPECT_TRUE(std::equal(map.begin(), map.end(), ref.begin(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }));
    if (ref.size() % 16 == 0 && refills < 8) {  // at the front and back
      ++refills;
      for (const int k : {-refills, 1000 + refills}) {
        map.emplace(k, k);
        ref.emplace(k, k);
      }
    }
  }
}

}  // namespace
