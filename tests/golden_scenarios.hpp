#pragma once

// The golden-trace scenario set: six representative workloads whose full
// trace dumps are pinned byte-for-byte under tests/golden/.
//
// Any engine change that perturbs event schedules — ordering keys, queue
// mechanics, fabric timing, runtime strobing — shows up as a golden diff.
//
// Shared between golden_gen (the regenerator, see tools/regen_golden.py)
// and test_golden (the replayer) so the two can never drift apart.

#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "apps/selfsched.hpp"
#include "apps/wavefront.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "snapshot/scenario.hpp"

namespace bcs::golden {

/// The quickstart example (examples/quickstart.cpp) with tracing on: 8
/// nodes, 16 ranks, five halo-exchange + allreduce steps.
inline std::string traceQuickstart() {
  net::ClusterConfig machine;
  machine.num_compute_nodes = 8;
  net::Cluster cluster(machine);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig mpi_cfg;
  mpi_cfg.runtime_init_overhead = sim::msec(1);
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, mpi_cfg);

  const std::vector<int> node_of_rank = {0, 0, 1, 1, 2, 2, 3, 3,
                                         4, 4, 5, 5, 6, 6, 7, 7};
  bcsmpi::launchJob(*runtime, node_of_rank, [](mpi::Comm& comm) {
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    const int right = (comm.rank() + 1) % comm.size();
    std::vector<double> halo_out(512, comm.rank() * 1.0), halo_in(512);
    double residual = 1.0;
    for (int step = 0; step < 5 && residual > 1e-9; ++step) {
      std::vector<mpi::Request> reqs;
      reqs.push_back(comm.irecvv<double>(halo_in, left, step));
      reqs.push_back(comm.isendv<double>(
          std::span<const double>(halo_out), right, step));
      comm.compute(sim::msec(2));
      comm.waitall(reqs);
      residual = comm.allreduceOne(halo_in[0] / (step + 1.0),
                                   mpi::ReduceOp::kMax);
    }
  });
  cluster.run();
  return cluster.trace().dump();
}

/// The collectives tour (examples/collectives_tour.cpp) with tracing on:
/// barrier, rooted bcast, NIC-side reduce/allreduce, allgather, alltoall
/// and a raw BCS-API barrier on 6 nodes.
inline std::string traceCollectivesTour() {
  net::ClusterConfig machine;
  machine.num_compute_nodes = 6;
  net::Cluster cluster(machine);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(100);
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  bcsmpi::launchJob(*runtime, {0, 1, 2, 3, 4, 5}, [](mpi::Comm& comm) {
    const int r = comm.rank();
    const int P = comm.size();

    comm.compute(sim::msec(r));
    comm.barrier();

    std::vector<int> table(8);
    if (r == 2) std::iota(table.begin(), table.end(), 100);
    comm.bcast(table.data(), table.size() * sizeof(int), /*root=*/2);

    const double mine = 0.1 * (r + 1);
    double sum = 0;
    comm.reduce(&mine, &sum, 1, mpi::Datatype::kFloat64, mpi::ReduceOp::kSum,
                /*root=*/0);
    (void)comm.allreduceOne(mine, mpi::ReduceOp::kMax);

    std::vector<std::int32_t> mine_sq{static_cast<std::int32_t>(r * r)};
    std::vector<std::int32_t> squares(static_cast<std::size_t>(P));
    comm.allgather(mine_sq.data(), sizeof(std::int32_t), squares.data());

    std::vector<std::int32_t> to_all(static_cast<std::size_t>(P)),
        from_all(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      to_all[static_cast<std::size_t>(d)] = 10 * r + d;
    }
    comm.alltoall(to_all.data(), sizeof(std::int32_t), from_all.data());

    auto& api = static_cast<bcsmpi::BcsComm&>(comm).api();
    api.barrier();
  });
  cluster.run();
  return cluster.trace().dump();
}

/// A compact Sweep3D wavefront (src/apps/wavefront.hpp) with tracing on:
/// 8 ranks, two source-iteration steps of two sweeps each, non-blocking
/// flavour (the paper's rewrite), scaled-down compute so the trace stays
/// a corpus-sized artifact rather than a multi-second run.
inline std::string traceSweep3d() {
  const int P = 8;
  net::ClusterConfig machine;
  machine.num_compute_nodes = P;
  net::Cluster cluster(machine);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(200);
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map, [](mpi::Comm& comm) {
    apps::Sweep3dConfig scfg;
    scfg.time_steps = 2;
    scfg.sweeps_per_step = 2;
    scfg.blocks = 4;
    scfg.step_compute = sim::usec(300);
    scfg.message_bytes = 2048;
    scfg.blocking = false;
    (void)apps::sweep3d(comm, scfg);
  });
  cluster.run();
  return cluster.trace().dump();
}

/// Hierarchical control plane (BcsMpiConfig::tree_fanout, DESIGN.md §7):
/// 32 nodes at fanout 8 — four racks — running a neighbour exchange plus an
/// allreduce that crosses rack boundaries.  Tree-mode schedules are
/// deliberately coarser than flat (rack-shared floor and drain events), so
/// this pins the tree schedule itself; the other scenarios keep pinning the
/// flat one.
inline std::string traceTreeExchange() {
  const int P = 32;
  net::ClusterConfig machine;
  machine.num_compute_nodes = P;
  net::Cluster cluster(machine);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(100);
  cfg.tree_fanout = 8;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map, [](mpi::Comm& comm) {
    const int me = comm.rank();
    const int P2 = comm.size();
    std::vector<std::uint8_t> out(1024), in(1024);
    for (int round = 0; round < 4; ++round) {
      auto sreq = comm.isend(out.data(), out.size(), (me + 1) % P2, round);
      auto rreq = comm.irecv(in.data(), in.size(), (me + P2 - 1) % P2, round);
      comm.wait(sreq, nullptr);
      comm.wait(rreq, nullptr);
    }
    (void)comm.allreduceOne(me * 1.0, mpi::ReduceOp::kSum);
  });
  cluster.run();
  return cluster.trace().dump();
}

/// Checkpoint at slice 4, kill at 3 ms, restore into a fresh stack and run
/// to drain; the dump is prefix(killed run) + continuation.  Pinning the
/// splice byte-for-byte makes any restore-identity regression a golden diff
/// (src/snapshot, DESIGN.md §8).
inline std::string traceCkptResume() { return snapshot::traceCkptResume(); }

/// One-sided work stealing (src/apps/selfsched, DESIGN.md §11): 8 nodes
/// running the fetch-add self-scheduler over a 4×-ramped loop.  Pins the
/// whole RMA epoch pipeline — DEM batch exchange, canonical-order MSM
/// apply, P2P completion returns — byte-for-byte, including the
/// chunk→owner map folded in as an app trace line.
inline std::string traceRmaSteal() {
  const int P = 8;
  net::ClusterConfig machine;
  machine.num_compute_nodes = P;
  net::Cluster cluster(machine);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(100);
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  apps::SelfSchedConfig scfg;
  scfg.chunks = 48;
  scfg.chunk_batch = 2;
  scfg.base_cost = sim::usec(90);
  scfg.cost_ramp = 4.0;

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map, [&cluster, &scfg](mpi::Comm& comm) {
    const apps::SelfSchedResult res = apps::selfSchedule(comm, scfg);
    cluster.trace().record(comm.now(), sim::TraceCategory::kApp, comm.rank(),
                          "self-sched: ran " +
                              std::to_string(res.chunks.size()) +
                              " chunk(s), owner digest " +
                              std::to_string(res.digest));
  });
  cluster.run();
  return cluster.trace().dump();
}

struct Scenario {
  const char* name;
  std::string (*generate)();
};

inline const Scenario kScenarios[] = {
    {"quickstart", &traceQuickstart},
    {"collectives_tour", &traceCollectivesTour},
    {"sweep3d", &traceSweep3d},
    {"tree_exchange", &traceTreeExchange},
    {"ckpt_resume", &traceCkptResume},
    {"rma_steal", &traceRmaSteal},
};

}  // namespace bcs::golden
