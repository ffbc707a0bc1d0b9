#pragma once

// The benchmark's workloads and the code that runs one job of a workload
// from outside the simulator, through the libraries' public API only.
//
// A job is one library (the baseline or BCS-MPI) running the workload's
// application on a fresh cluster.  A repetition ("rep") runs every job of
// the workload once, in order.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baseline/baseline.hpp"
#include "bcsmpi/config.hpp"
#include "mpi/comm.hpp"
#include "net/cluster.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

enum class Library { kBaseline, kBcsMpi };

/// Metric prefix of a library's job: "baseline" or "bcsmpi".
const char* libraryName(Library lib);

/// Runs one rank of the application and returns that rank's checksum.
using App = std::function<double(bcs::mpi::Comm&)>;

struct Workload {
  std::string name;
  int ranks = 0;
  int ranks_per_node = 1;  ///< CPU slots the placement fills per node
  bcs::net::ClusterConfig cluster;
  bcs::baseline::BaselineConfig baseline;
  bcs::bcsmpi::BcsMpiConfig bcs;
  std::vector<Library> jobs;  ///< run in this order within a rep
  App app;
  /// Closed-form checksum of a rank, for workloads without a baseline job
  /// to compare against; null when the libraries are compared instead.
  std::function<double(int rank)> expected_checksum;
  /// Seed-0 reference row as the paper benches print it (%.3f s, %.2f %%);
  /// empty when the workload has none.
  std::string ref_baseline_s, ref_bcs_s, ref_slowdown_pct;
};

/// The workload called `name`, or nullptr.
const Workload* findWorkload(const std::string& name);
std::vector<std::string> workloadNames();

/// Rank -> node placement for `seed`.  Seed 0 is the paper's block mapping;
/// any other seed is a seeded permutation of the same CPU slots.
std::vector<int> placement(const Workload& wl, std::uint64_t seed);

/// Counters the simulation reproduces exactly for a given seed.  The
/// runtime ones stay zero for baseline jobs.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t unicasts = 0;
  std::uint64_t multicasts = 0;
  std::uint64_t conditionals = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t slices = 0;
  std::uint64_t overruns = 0;
  std::uint64_t descriptors = 0;
  std::uint64_t matches = 0;
  std::uint64_t chunks = 0;
  std::uint64_t collectives = 0;
  bool operator==(const Counters&) const = default;
};

struct SetupTimes {
  double cluster_s = 0;       ///< net::Cluster constructor
  double launch_s = 0;        ///< Runtime/World construction + rank spawns
  double first_resume_s = 0;  ///< Cluster::run(0): every rank fiber starts
  double total() const { return cluster_s + launch_s + first_resume_s; }
};

/// Per-slice and per-call observations of a traced job.
struct JobTrace {
  std::uint64_t suspends = 0;   ///< wrapped calls returning at a later sim time
  std::uint64_t mpi_calls = 0;  ///< wrapped communication calls
  /// CPU µs the rank's own thread spent in each communication call.  Every
  /// call of both libraries charges simulated CPU time (the posting cost),
  /// so none returns at the same simulated time and the call's wall time
  /// includes whatever else ran meanwhile; the thread's CPU clock does not.
  std::vector<double> call_cpu_us;
  std::vector<double> slice_us;       ///< host µs per slice-grid step
  std::vector<double> idle_slice_us;  ///< the steps that moved no work
  std::uint64_t busy_slices = 0;
  std::vector<double> root_msgs;  ///< root control messages, per slice step
};

struct JobResult {
  Library lib = Library::kBaseline;
  SetupTimes setup;
  /// Host s from the end of setup to cluster destroyed; in untraced jobs,
  /// without the calibrations made in between.
  double run_s = 0;
  /// Untraced jobs: set-up and run_s at the reference host speed, and the
  /// median calibration time (perfbench/calibration.hpp).
  double ref_setup_s = 0;
  double ref_run_s = 0;
  double calibration_s = 0;
  bool ok = false;        ///< no exception and every rank finished
  std::string error;
  double sim_s = 0;       ///< latest rank finish, simulated seconds
  std::vector<double> checksums;  ///< per rank
  Counters counters;
  std::int64_t kernel_switches = 0;  ///< getrusage context switches, whole job
  double sys_s = 0;                  ///< getrusage system time, whole job
  std::int64_t peak_threads = 0;     ///< threads once every rank started
  JobTrace trace;                    ///< filled by traced jobs only
};

class Calibrator;
class Tracer;

/// Runs one job to completion, stepping the engine on the slice grid.  With
/// a tracer, every rank's communicator is wrapped and spans are recorded;
/// without one, the host speed is calibrated between steps.
JobResult runJob(const Workload& wl, Library lib, const std::vector<int>& map,
                 Calibrator& calibrator, Tracer* tracer);

/// Only the set-up part of a job, calibrated before and after; the cluster
/// is then torn down with every rank still blocked in its bring-up.
/// Returns the set-up seconds at the reference host speed.
double setupOnlyRefS(const Workload& wl, Library lib,
                     const std::vector<int>& map, Calibrator& calibrator);

}  // namespace perfbench
