#pragma once

// Cluster: the simulated machine.
//
// Mirrors the paper's experimental setup (§5.1): N compute nodes plus one
// management node, each compute node with two CPUs and one NIC, all attached
// to a fat-tree fabric.  Node indices 0..N-1 are compute nodes; index N is
// the management node (where STORM's Machine Manager and BCS-MPI's Strobe
// Sender run).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/params.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/noise.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace bcs::net {

struct ClusterConfig {
  int num_compute_nodes = 32;
  int cpus_per_node = 2;  ///< crescendo nodes are dual Pentium-III
  NetworkParams network = NetworkParams::qsnet();
  std::uint64_t seed = 42;

  /// Optional OS-noise dæmon on every compute node (see sim/noise.hpp).
  bool inject_noise = false;
  sim::NoiseConfig noise;

  /// Faults the machine should suffer (see sim/fault.hpp).  The injector's
  /// randomness is a stream derived from `seed`, so fault schedules are
  /// reproducible and independent of the workload's draws.
  sim::FaultPlan faults;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int numComputeNodes() const { return config_.num_compute_nodes; }
  int managementNode() const { return config_.num_compute_nodes; }
  int totalNodes() const { return config_.num_compute_nodes + 1; }

  sim::Engine& engine() { return engine_; }
  Fabric& fabric() { return *fabric_; }
  sim::Trace& trace() { return trace_; }
  const ClusterConfig& config() const { return config_; }
  sim::CpuScheduler& cpu(int node) { return *cpus_.at(static_cast<std::size_t>(node)); }
  sim::Rng& rng() { return rng_; }

  /// The machine's fault injector — always present (an empty plan draws
  /// nothing).  `kManagementNode` sentinels in the config's plan have been
  /// resolved to the real management-node index.
  sim::FaultInjector* faults() { return fault_.get(); }

  /// Creates a process on `node` and schedules its first run at `when`.
  /// The Cluster owns the process.
  sim::Process& spawn(int node, std::string name, sim::Process::Body body,
                      sim::SimTime when = 0);

  /// Runs the simulation until the event queue drains (or `until`).
  /// Returns the final simulated time.
  sim::SimTime run(sim::SimTime until = INT64_MAX);

  /// True iff every spawned process has finished.  Call after run(); if the
  /// queue drained with processes still blocked, the run deadlocked and
  /// unfinishedProcesses() names the culprits.
  bool allProcessesFinished() const;
  std::vector<std::string> unfinishedProcesses() const;

  /// Number of processes ever spawned.  Snapshot capture (src/snapshot)
  /// refuses clusters with any: fiber stacks cannot be serialized, so
  /// checkpointable workloads must be detached state machines.
  std::size_t processCount() const { return processes_.size(); }

 private:
  ClusterConfig config_;
  sim::Engine engine_;
  sim::Trace trace_;
  sim::Rng rng_;
  std::unique_ptr<sim::FaultInjector> fault_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<sim::CpuScheduler>> cpus_;
  std::vector<std::unique_ptr<sim::NoiseInjector>> noise_;
  std::vector<std::unique_ptr<sim::Process>> processes_;
};

}  // namespace bcs::net
