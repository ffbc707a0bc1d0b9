#pragma once

// Per-node CPU model.
//
// Each simulated node has a fixed number of CPUs (the paper's "crescendo"
// cluster nodes are dual 1 GHz Pentium-III, so the default is 2).  Compute
// demand is expressed in nanoseconds of CPU work and serviced with a
// processor-sharing discipline:
//
//   * kDaemon tasks (OS / resource-management dæmons) preempt user work;
//     each active dæmon occupies one CPU.  This is how we model the
//     "computational holes of several hundreds of ms" that un-coordinated
//     system dæmons punch into fine-grained applications [Petrini et al.,
//     SC'03 "missing supercomputer performance"].
//   * kUser tasks share the remaining CPUs equally.  A task can also be
//     frozen (descheduled) — used by the STORM Node Manager to implement
//     gang scheduling at time-slice boundaries.
//
// Whenever the active set changes, remaining work is advanced at the old
// rates and the earliest completion event is re-armed: O(tasks) per change,
// and tasks-per-node is tiny (<= 2 app processes + dæmons).

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/time.hpp"

namespace bcs::sim {

/// Opaque handle to a submitted compute task.
struct CpuTaskId {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class CpuScheduler {
 public:
  enum class Priority { kUser, kDaemon };

  CpuScheduler(Engine& engine, int num_cpus);

  /// Submits `work` nanoseconds of CPU demand.  `done` fires (as an engine
  /// event) when the task has accumulated that much service.  Tasks start
  /// runnable.
  CpuTaskId submit(Duration work, Priority prio, EventCallback done);

  /// Removes a task without running its completion callback.
  void cancel(CpuTaskId id);

  /// Freezes / unfreezes a task (gang scheduling).  A frozen task receives
  /// zero service but keeps its remaining work.
  void setRunnable(CpuTaskId id, bool runnable);

  /// Remaining CPU demand of a task; 0 if unknown/finished.
  Duration remaining(CpuTaskId id) const;

  /// Number of tasks currently receiving service.
  int activeTasks() const;

  /// Total CPU-time actually delivered to user tasks (for utilization
  /// statistics).
  double userCpuTimeDelivered() const { return user_delivered_; }

 private:
  struct Task {
    double remaining_ns = 0;
    Priority prio = Priority::kUser;
    bool runnable = true;
    EventCallback done;
  };

  /// Credits service since the last update at current rates and fires
  /// completions.  Must run *before* any task-set mutation.
  void account();
  /// Recomputes rates and re-arms the next-completion event.
  void rearm();
  void countActive(int& daemons, int& users) const;
  double rateFor(const Task& t, int active_daemons, int active_users) const;

  Engine& engine_;
  int num_cpus_;
  std::uint64_t next_id_ = 1;
  /// Ordered by task id: account() accumulates floating-point service over
  /// this table, and FP addition is not associative — iteration must be in
  /// a reproducible order, never hash order.  A flat, id-ordered vector
  /// (sim/flat_map.hpp): ids only grow, so a submit appends, and a node's
  /// handful of tasks cycle through its capacity without allocating.
  FlatMap<std::uint64_t, Task> tasks_;
  SimTime last_update_ = 0;
  EventId pending_completion_{};
  double user_delivered_ = 0;
};

}  // namespace bcs::sim
