#pragma once

// The state serializer behind capture()/restore() (checkpoint.hpp).
//
// StateIO is a friend of every stateful simulator class (Engine, Rng,
// FaultInjector, Fabric, BcsCore, Storm, Runtime, Verifier, DetachedRing):
// it reads their privates at capture and writes them back into freshly
// constructed objects at restore.  Friendship instead of public state APIs
// keeps the snapshot surface out of each class's contract — the serializer
// versions with the repo, not with callers.
//
// Each subsystem's state is one field list, `fields(Ar&, T&)`, that the
// Encoder runs at capture and the Decoder at restore (wire.hpp), so no field
// can be written on one side only.  The few steps only a restore runs
// (recomputing derived state, load-side consistency checks) sit beside the
// fields under `Ar::kLoading`.
//
// Pending engine events are never serialized (they are closures).  Capture
// records each timer's *logical* deadline (watchdog_at, next_round_at_,
// inspect_at_, next_tick_at); restore warps the fresh engine's clock to the
// capture instant and re-arms every timer from the recorded deadlines, in a
// canonical order whose correctness rests on all re-armed events firing at
// pairwise-distinct times (the off-grid cadences documented in DESIGN.md
// §8).  A final resume event at the capture instant runs the post-capture
// tail of the slice boundary (Runtime::resumeFromRestore), so every event
// the continuation schedules draws a sequence number *after* all re-armed
// events — exactly the pending-before-boundary < scheduled-at-boundary
// order the interrupted run had.

#include <cstdint>

#include "snapshot/checkpoint.hpp"
#include "snapshot/format.hpp"
#include "snapshot/wire.hpp"

namespace bcs::snapshot {

class StateIO {
 public:
  /// Capture-time guards: throws SnapshotError("capture", …) when the
  /// simulation holds state that cannot round-trip (live fibers, an
  /// election or active collective in flight, queued event waiters,
  /// un-dispatched boundary work).
  static void checkCapturable(Simulation& sim);

  /// Serializes every subsystem into `w` (one section each).
  static void saveAll(Simulation& sim, SnapshotWriter& w);

  /// Restores a simulation built by checkpoint.cpp's buildCommon (nothing
  /// started) from the reader's sections, then re-arms all timers and the
  /// resume event.
  static void restoreAll(Simulation& sim, const SnapshotReader& r);

  /// The "meta" section: the capture instant and what the stack held.
  struct Meta {
    sim::SimTime now = 0;
    std::uint64_t slice = 0;  ///< informational; restored with the runtime
    std::uint64_t trace_bytes = 0;    ///< trace dump length at capture
    std::uint64_t trace_records = 0;  ///< trace record count at capture
    bool with_storm = false;
    bool with_verify = false;
  };
  static Meta readMeta(const SnapshotReader& r);

 private:
  // One field list per subsystem, run as is by the Encoder at capture and
  // by the Decoder at restore (wire.hpp).  Static members rather than
  // file-local helpers because friendship is granted to StateIO, not to
  // free functions.
  template <class Ar>
  static void fields(Ar& a, Meta& m);
  template <class Ar>
  static void fields(Ar& a, core::BcsCore& c);
  template <class Ar>
  static void fields(Ar& a, storm::Storm& st);
  template <class Ar>
  static void fields(Ar& a, verify::Verifier& v);
  template <class Ar>
  static void fields(Ar& a, bcsmpi::Runtime& rt, const BufferRegistry& reg);
  template <class Ar>
  static void fields(Ar& a, DetachedRing& wl);

  /// The section sequence shared by saveAll and restoreAll: calls
  /// `section(name, body)` once per section, in blob order, where body
  /// runs that section's fields on an Ar.
  template <class Ar, class Section>
  static void sections(Simulation& sim, Section&& section);
};

}  // namespace bcs::snapshot
