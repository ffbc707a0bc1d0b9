// Multiple parallel jobs on one machine: STORM allocates the nodes,
// launches the job images over the hardware collectives, and the BCS-MPI
// runtime gang-schedules the jobs at time-slice granularity — backfilling
// slices one job spends blocked on communication with the other job's
// computation (paper §5.4, option 1).
//
//   $ ./examples/multi_job_gang

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/wavefront.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "storm/storm.hpp"

int main() {
  using namespace bcs;

  net::ClusterConfig machine;
  machine.num_compute_nodes = 8;
  net::Cluster cluster(machine);

  // STORM: resource accounting + collective job launch + heartbeats.
  storm::Storm storm(cluster);
  storm.startHeartbeats();

  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(200);
  cfg.gang_scheduling = true;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);

  // Two blocking-heavy wavefront jobs; each would waste ~1/3 of its time
  // suspended at slice boundaries if it had the machine to itself.
  apps::Sweep3dConfig app_cfg;
  app_cfg.time_steps = 3;
  app_cfg.sweeps_per_step = 4;
  app_cfg.blocking = true;

  // STORM heartbeats re-arm forever, so the event queue only drains once
  // they stop: the last of both jobs' ranks to finish turns them off.
  constexpr int kRanks = 2 * 8;
  int ranks_done = 0;
  std::vector<std::vector<sim::SimTime>> finish(2);
  for (int j = 0; j < 2; ++j) {
    // Both jobs want every node: spread placement, one slot per node per
    // job, two job slots per node (multiprogramming level 2).
    const auto nodes =
        storm.allocate(8, /*per_node=*/2, storm::Storm::Placement::kSpread);
    storm.launchImage(nodes, /*binary_bytes=*/2 << 20, 1,
                      [&, j, nodes](sim::SimTime) {
                        bcsmpi::launchJob(
                            *runtime, nodes,
                            [&, app_cfg](mpi::Comm& c) {
                              (void)apps::sweep3d(c, app_cfg);
                              if (++ranks_done == kRanks) {
                                storm.stopHeartbeats();
                              }
                            },
                            &finish[static_cast<std::size_t>(j)]);
                      });
  }

  cluster.run();

  for (int j = 0; j < 2; ++j) {
    sim::SimTime last = 0;
    for (auto t : finish[static_cast<std::size_t>(j)]) {
      last = std::max(last, t);
    }
    std::printf("job %d finished at %s\n", j, sim::formatTime(last).c_str());
  }
  std::printf("heartbeats sent by the Machine Manager: %llu, all nodes alive: %s\n",
              static_cast<unsigned long long>(storm.heartbeatsSent()),
              storm.deadNodes().empty() ? "yes" : "no");
  std::printf(
      "\nWith gang scheduling the two jobs interleave at 500 us slices;\n"
      "compare bench_gang for the quantitative makespan win.\n");
  return 0;
}
