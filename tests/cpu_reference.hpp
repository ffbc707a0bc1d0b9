#pragma once

// The per-node CPU model as it was before its task table became a flat,
// id-ordered vector: tasks in a std::map<id, Task> with std::function
// completions.  Kept verbatim (only made header-only, in its own
// namespace) as the reference the CpuEquivalence tests in test_sim.cpp
// hold sim::CpuScheduler to, bit for bit, the way MatcherEquivalence keeps
// the quadratic matcher.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace bcs::sim::reference {

class CpuScheduler {
 public:
  enum class Priority { kUser, kDaemon };

  CpuScheduler(Engine& engine, int num_cpus);

  /// Submits `work` nanoseconds of CPU demand.  `done` fires (as an engine
  /// event) when the task has accumulated that much service.  Tasks start
  /// runnable.
  CpuTaskId submit(Duration work, Priority prio, std::function<void()> done);

  /// Removes a task without running its completion callback.
  void cancel(CpuTaskId id);

  /// Freezes / unfreezes a task (gang scheduling).  A frozen task receives
  /// zero service but keeps its remaining work.
  void setRunnable(CpuTaskId id, bool runnable);

  /// Remaining CPU demand of a task; 0 if unknown/finished.
  Duration remaining(CpuTaskId id) const;

  /// Number of tasks currently receiving service.
  int activeTasks() const;

  int numCpus() const { return num_cpus_; }

  /// Total CPU-time actually delivered to user tasks (for utilization
  /// statistics).
  double userCpuTimeDelivered() const { return user_delivered_; }

 private:
  struct Task {
    double remaining_ns;
    Priority prio;
    bool runnable;
    std::function<void()> done;
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
  /// this container, and FP addition is not associative — iteration must be
  /// in a reproducible order, never hash order.  The per-node task count is
  /// tiny, so the tree walk costs nothing measurable.
  std::map<std::uint64_t, Task> tasks_;
  SimTime last_update_ = 0;
  EventId pending_completion_{};
  double user_delivered_ = 0;
};


namespace {
// Completion times are computed in floating point; treat anything below this
// as "done now" to avoid re-arming zero-length events forever.
constexpr double kEpsilonNs = 1e-6;
}  // namespace

inline CpuScheduler::CpuScheduler(Engine& engine, int num_cpus)
    : engine_(engine), num_cpus_(num_cpus) {
  if (num_cpus <= 0) throw SimError("CpuScheduler: need at least one CPU");
}

inline double CpuScheduler::rateFor(const Task& t, int active_daemons,
                             int active_users) const {
  if (!t.runnable || t.remaining_ns <= 0) return 0.0;
  if (t.prio == Priority::kDaemon) {
    // Each dæmon gets up to a full CPU; if there are more dæmons than CPUs
    // they share all CPUs equally.
    return std::min(1.0, static_cast<double>(num_cpus_) / active_daemons);
  }
  const double cpus_for_daemons =
      std::min<double>(num_cpus_, active_daemons);
  const double cpus_left = num_cpus_ - cpus_for_daemons;
  if (cpus_left <= 0 || active_users == 0) return 0.0;
  return std::min(1.0, cpus_left / active_users);
}

inline void CpuScheduler::countActive(int& daemons, int& users) const {
  daemons = users = 0;
  for (const auto& [id, t] : tasks_) {
    if (!t.runnable || t.remaining_ns <= 0) continue;
    (t.prio == Priority::kDaemon ? daemons : users)++;
  }
}

inline void CpuScheduler::account() {
  // Credit service delivered since the last update at the *current* rates.
  // Must be called BEFORE any mutation of the task set, so newly added or
  // removed tasks never retroactively change past service.
  const SimTime now = engine_.now();
  int active_daemons = 0, active_users = 0;
  countActive(active_daemons, active_users);
  const double elapsed = static_cast<double>(now - last_update_);
  if (elapsed > 0) {
    for (auto& [id, t] : tasks_) {
      const double rate = rateFor(t, active_daemons, active_users);
      if (rate <= 0) continue;
      const double served = std::min(t.remaining_ns, rate * elapsed);
      t.remaining_ns -= served;
      if (t.prio == Priority::kUser) user_delivered_ += served;
    }
  }
  last_update_ = now;

  // Fire completions for tasks that have drained (tasks_ is id-ordered, so
  // the collected list already is too).
  std::vector<std::uint64_t> finished;
  for (auto& [id, t] : tasks_) {
    if (t.remaining_ns <= kEpsilonNs) finished.push_back(id);
  }
  for (std::uint64_t id : finished) {
    auto it = tasks_.find(id);
    std::function<void()> done = std::move(it->second.done);
    tasks_.erase(it);
    if (done) engine_.at(now, std::move(done));
  }
}

inline void CpuScheduler::rearm() {
  if (pending_completion_.valid()) {
    engine_.cancel(pending_completion_);
    pending_completion_ = EventId{};
  }
  int active_daemons = 0, active_users = 0;
  countActive(active_daemons, active_users);
  double soonest = std::numeric_limits<double>::infinity();
  for (const auto& [id, t] : tasks_) {
    const double rate = rateFor(t, active_daemons, active_users);
    if (rate <= 0) continue;
    soonest = std::min(soonest, t.remaining_ns / rate);
  }
  if (std::isfinite(soonest)) {
    const auto delay =
        static_cast<Duration>(std::ceil(std::max(soonest, 0.0)));
    pending_completion_ = engine_.after(delay, [this] {
      pending_completion_ = EventId{};
      account();
      rearm();
    });
  }
}

inline CpuTaskId CpuScheduler::submit(Duration work, Priority prio,
                               std::function<void()> done) {
  if (work < 0) throw SimError("CpuScheduler::submit: negative work");
  account();
  const std::uint64_t id = next_id_++;
  if (work == 0) {
    // Zero-length work completes immediately (deferred via the engine so
    // completion ordering stays consistent with nonzero tasks).
    if (done) engine_.at(engine_.now(), std::move(done));
    rearm();
    return CpuTaskId{id};
  }
  tasks_.emplace(id, Task{static_cast<double>(work), prio, /*runnable=*/true,
                          std::move(done)});
  rearm();
  return CpuTaskId{id};
}

inline void CpuScheduler::cancel(CpuTaskId id) {
  auto it = tasks_.find(id.id);
  if (it == tasks_.end()) return;
  account();
  tasks_.erase(id.id);  // account() may already have completed+erased it
  rearm();
}

inline void CpuScheduler::setRunnable(CpuTaskId id, bool runnable) {
  auto it = tasks_.find(id.id);
  if (it == tasks_.end()) return;
  if (it->second.runnable == runnable) return;
  account();
  it = tasks_.find(id.id);
  if (it != tasks_.end()) it->second.runnable = runnable;
  rearm();
}

inline Duration CpuScheduler::remaining(CpuTaskId id) const {
  auto it = tasks_.find(id.id);
  if (it == tasks_.end()) return 0;
  return static_cast<Duration>(std::ceil(it->second.remaining_ns));
}

inline int CpuScheduler::activeTasks() const {
  int n = 0;
  for (const auto& [id, t] : tasks_) {
    if (t.runnable && t.remaining_ns > 0) ++n;
  }
  return n;
}

}  // namespace bcs::sim::reference
