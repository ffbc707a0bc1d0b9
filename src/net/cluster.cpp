#include "net/cluster.hpp"

#include <utility>

namespace bcs::net {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.num_compute_nodes <= 0) {
    throw sim::SimError("Cluster: need at least one compute node");
  }
  fabric_ = std::make_unique<Fabric>(engine_, config_.network, totalNodes(),
                                     &trace_);
  // The injector always exists (so run-time actors like Storm::killNode can
  // register faults through it even on fault-free configs); an empty plan
  // draws no randomness and changes no timing.  Stream 13 is reserved for
  // fault decisions so adding faults never perturbs the workload/noise
  // randomness of an otherwise identical run.
  sim::FaultPlan plan = config_.faults;
  for (sim::FaultPlan::NodeFault& f : plan.node_faults) {
    if (f.node == sim::FaultPlan::kManagementNode) f.node = managementNode();
  }
  fault_ = std::make_unique<sim::FaultInjector>(std::move(plan),
                                                sim::deriveSeed(config_.seed, 13));
  fabric_->setFaultInjector(fault_.get());
  cpus_.reserve(static_cast<std::size_t>(totalNodes()));
  for (int n = 0; n < totalNodes(); ++n) {
    cpus_.push_back(
        std::make_unique<sim::CpuScheduler>(engine_, config_.cpus_per_node));
  }
  if (config_.inject_noise) {
    for (int n = 0; n < numComputeNodes(); ++n) {
      // Coordinated (coscheduled) dæmons must stay in phase forever, so
      // they share one jitter stream; uncoordinated ones drift on their
      // own per-node streams.
      const std::uint64_t stream =
          config_.noise.coordinated ? 7 : static_cast<std::uint64_t>(n) + 1000;
      auto inj = std::make_unique<sim::NoiseInjector>(
          engine_, *cpus_[static_cast<std::size_t>(n)], config_.noise,
          sim::deriveSeed(config_.seed, stream));
      inj->start(0);
      noise_.push_back(std::move(inj));
    }
  }
}

sim::Process& Cluster::spawn(int node, std::string name,
                             sim::Process::Body body, sim::SimTime when) {
  if (node < 0 || node >= totalNodes()) {
    throw sim::SimError("Cluster::spawn: bad node " + std::to_string(node));
  }
  processes_.push_back(std::make_unique<sim::Process>(
      engine_, *cpus_[static_cast<std::size_t>(node)], node, std::move(name),
      std::move(body)));
  processes_.back()->start(std::max(when, engine_.now()));
  return *processes_.back();
}

sim::SimTime Cluster::run(sim::SimTime until) {
  // Noise dæmons re-arm themselves forever; when asked to run to queue
  // drain we must stop them once all processes finish, otherwise the run
  // never terminates.  run() therefore loops: run a bounded horizon, check.
  if (noise_.empty() || until != INT64_MAX) return engine_.run(until);

  while (true) {
    // Advance in 100 ms slabs until all processes have finished.
    const sim::SimTime horizon = engine_.now() + sim::msec(100);
    engine_.run(horizon);
    if (allProcessesFinished()) {
      for (auto& n : noise_) n->stop();
      return engine_.run();  // drain remaining events
    }
    if (engine_.pendingEvents() == 0) return engine_.now();  // deadlock
  }
}

bool Cluster::allProcessesFinished() const {
  for (const auto& p : processes_) {
    if (!p->finished()) return false;
  }
  return true;
}

std::vector<std::string> Cluster::unfinishedProcesses() const {
  std::vector<std::string> out;
  for (const auto& p : processes_) {
    if (!p->finished()) out.push_back(p->name());
  }
  return out;
}

}  // namespace bcs::net
