#pragma once

// Dynamic loop self-scheduling on one-sided RMA (DESIGN.md §11).
//
// A job shares `chunks` independent loop iterations whose cost ramps
// linearly (chunk 0 cheapest, chunk N-1 up to `cost_ramp`× dearer) — the
// classic irregular-loop shape where a static block partition leaves the
// high-index ranks working long after the low-index ranks went idle.
//
// Two schedulers over the same iteration space:
//
//   * selfSchedule — idle ranks *steal* the next chunk index with
//     bcs_fetch_add on a shared counter homed in a window on rank 0.  No
//     master rank, no request/reply rendezvous: one remote atomic per
//     claim, resolved inside the target's MSM microphase in canonical rank
//     order, so the chunk→owner map is deterministic.
//     Requires a BcsComm (the counter lives in NIC-homed window memory).
//
//   * staticSchedule — block partition, no communication during the loop.
//     Runs on any mpi::Comm; the bench pairs it with the baseline
//     rendezvous runtime as the comparison point.
//
// Both finish with an allreduce of the chunk→owner map, so every rank
// returns the same digest and the property tests can check conservation
// (every chunk executed exactly once) even under a fault soup.

#include <cstdint>
#include <vector>

#include "mpi/comm.hpp"
#include "sim/time.hpp"

namespace bcs::apps {

struct SelfSchedConfig {
  int chunks = 256;        ///< loop iterations to distribute
  int chunk_batch = 1;     ///< indices claimed per fetch-add
  sim::Duration base_cost = sim::usec(200);  ///< cost of chunk 0
  double cost_ramp = 4.0;  ///< chunk N-1 costs base_cost * cost_ramp
};

struct SelfSchedResult {
  /// Chunk indices this rank executed, in execution order.
  std::vector<int> chunks;
  /// FNV-1a over the global chunk→owner map (identical on every rank that
  /// completed the final allreduce; 0 if the job degraded before it).
  std::uint64_t digest = 0;
  /// Entries of the global owner map: owners[c] == rank that ran chunk c,
  /// or -1 if it was never claimed (counter owner crashed mid-loop).
  std::vector<int> owners;
};

/// Per-chunk cost under the linear ramp (shared by both schedulers).
sim::Duration chunkCost(const SelfSchedConfig& cfg, int chunk);

/// Work-stealing scheduler on bcs_fetch_add.  `comm` must be a BcsComm.
SelfSchedResult selfSchedule(mpi::Comm& comm, const SelfSchedConfig& cfg);

/// Static block partition over the same cost ramp (baseline comparator).
SelfSchedResult staticSchedule(mpi::Comm& comm, const SelfSchedConfig& cfg);

}  // namespace bcs::apps
