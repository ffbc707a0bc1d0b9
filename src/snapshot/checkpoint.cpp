#include "snapshot/checkpoint.hpp"

#include <string>
#include <utility>

#include "snapshot/state_io.hpp"

namespace bcs::snapshot {

namespace {

// build() and restore() both construct the stack here, in one order: the
// engine's variable/event allocations and the runtime's per-node layout
// depend only on construction order, and a restore writes captured state
// into a structurally identical fresh build.
Simulation buildCommon(const ScenarioSpec& spec) {
  Simulation sim;
  sim.spec = spec;
  sim.cluster = std::make_unique<net::Cluster>(spec.cluster);
  if (spec.trace) sim.cluster->trace().enable();
  sim.runtime = std::make_unique<bcsmpi::Runtime>(*sim.cluster, spec.mpi);
  sim.job = sim.runtime->createJob(spec.ring.node_of_rank);
  sim.registry = std::make_unique<BufferRegistry>();
  sim.workload = std::make_unique<DetachedRing>(*sim.runtime, sim.job,
                                                spec.ring, *sim.registry);
  if (spec.with_storm) {
    sim.storm = std::make_unique<storm::Storm>(*sim.cluster, spec.storm);
    if (spec.wire_fault_handlers) {
      bcsmpi::Runtime* rt = sim.runtime.get();
      storm::Storm* st = sim.storm.get();
      st->setDeathHandler([rt](int node) { rt->notifyNodeFailure(node); });
      st->setRejoinHandler([rt](int node) { rt->notifyNodeRejoin(node); });
      rt->setFailoverHandler(
          [st](int node, std::uint64_t) { st->failoverTo(node); });
    }
  }
  return sim;
}

}  // namespace

std::uint64_t fingerprintConfig(const ScenarioSpec& spec) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  const net::ClusterConfig& c = spec.cluster;
  mix(static_cast<std::uint64_t>(c.num_compute_nodes));
  mix(static_cast<std::uint64_t>(c.cpus_per_node));
  mix(c.seed);
  mix(c.inject_noise ? 1 : 0);
  const bcsmpi::BcsMpiConfig& m = spec.mpi;
  mix(static_cast<std::uint64_t>(m.time_slice));
  mix(static_cast<std::uint64_t>(m.dem_floor));
  mix(static_cast<std::uint64_t>(m.msm_floor));
  mix(static_cast<std::uint64_t>(m.strobe_poll_interval));
  mix(static_cast<std::uint64_t>(m.watchdog_slices));
  mix(static_cast<std::uint64_t>(m.election_retry_interval));
  mix(static_cast<std::uint64_t>(m.dem_drain_window));
  mix(static_cast<std::uint64_t>(m.post_overhead));
  mix(static_cast<std::uint64_t>(m.descriptor_bytes));
  mix(static_cast<std::uint64_t>(m.max_descriptor_retries));
  mix(static_cast<std::uint64_t>(m.nic_desc_processing));
  mix(static_cast<std::uint64_t>(m.nic_match_cost));
  mix(static_cast<std::uint64_t>(m.chunk_bytes));
  mix(static_cast<std::uint64_t>(m.slice_byte_budget));
  mix(static_cast<std::uint64_t>(m.nic_reduce_per_element));
  mix(static_cast<std::uint64_t>(m.runtime_init_overhead));
  mix(static_cast<std::uint64_t>(m.tree_fanout));
  mix(m.gang_scheduling ? 1 : 0);
  mix(m.verify ? 1 : 0);
  mix(static_cast<std::uint64_t>(m.verify_max_findings));
  mix(m.checkpoint_every_slices);
  const storm::StormConfig& s = spec.storm;
  mix(static_cast<std::uint64_t>(s.heartbeat_period));
  mix(static_cast<std::uint64_t>(s.max_missed_heartbeats));
  mix(static_cast<std::uint64_t>(s.nm_spawn_overhead));
  mix(static_cast<std::uint64_t>(s.mm_dispatch_overhead));
  mix(static_cast<std::uint64_t>(s.launch_poll_interval));
  const RingSpec& r = spec.ring;
  mix(static_cast<std::uint64_t>(r.ranks));
  mix(static_cast<std::uint64_t>(r.rounds));
  mix(static_cast<std::uint64_t>(r.bytes));
  for (int n : r.node_of_rank) mix(static_cast<std::uint64_t>(n));
  mix(spec.with_storm ? 1 : 0);
  mix(spec.wire_fault_handlers ? 1 : 0);
  mix(spec.trace ? 1 : 0);
  return h;
}

Simulation build(const ScenarioSpec& spec) {
  Simulation sim = buildCommon(spec);
  for (int r = 0; r < spec.ring.ranks; ++r) {
    sim.runtime->registerDetachedRank(sim.job, r);
  }
  sim.workload->start();
  if (sim.storm) sim.storm->startHeartbeats();
  return sim;
}

std::vector<std::uint8_t> capture(Simulation& sim) {
  StateIO::checkCapturable(sim);
  SnapshotWriter w;
  StateIO::saveAll(sim, w);
  return w.finish(fingerprintConfig(sim.spec));
}

Simulation restore(const ScenarioSpec& spec,
                   const std::vector<std::uint8_t>& blob) {
  SnapshotReader reader(blob);
  const std::uint64_t want = fingerprintConfig(spec);
  if (reader.fingerprint() != want) {
    throw SnapshotError(
        "header",
        "config fingerprint mismatch: snapshot " +
            std::to_string(reader.fingerprint()) + ", scenario " +
            std::to_string(want) +
            " (machine shape and runtime config must match; only FaultPlan "
            "and NetworkParams may differ between branches)");
  }
  // Bare build: identical construction order to build(), but nothing is
  // started — no rank registration, no workload ticks, no heartbeats — so
  // the engine holds zero pending events until restoreAll re-arms them.
  Simulation sim = buildCommon(spec);
  StateIO::restoreAll(sim, reader);
  return sim;
}

std::uint64_t traceDumpBytesAt(const std::vector<std::uint8_t>& blob) {
  return StateIO::readMeta(SnapshotReader(blob)).trace_bytes;
}

}  // namespace bcs::snapshot
