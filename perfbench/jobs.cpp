#include "jobs.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "apps/nas.hpp"
#include "apps/wavefront.hpp"
#include "bcsmpi/comm.hpp"
#include "calibration.hpp"
#include "sim/rng.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace bs = bcs::sim;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const char* libraryName(Library lib) {
  return lib == Library::kBcsMpi ? "bcsmpi" : "baseline";
}

namespace {

// Fig 11(a)'s 62-process point (bench_fig11_sweep3d): one descriptor in
// flight per rank and a fiber switch for every blocking call.
Workload sweep3dBlockingP62() {
  Workload w;
  w.name = "sweep3d_blocking_p62";
  w.ranks = 62;
  w.ranks_per_node = 2;
  w.cluster.num_compute_nodes = 31;
  w.baseline.init_overhead = bs::usec(100);
  w.bcs.runtime_init_overhead = bs::usec(100);
  w.jobs = {Library::kBaseline, Library::kBcsMpi};
  bcs::apps::Sweep3dConfig cfg;
  cfg.blocking = true;
  w.app = [cfg](bcs::mpi::Comm& c) { return bcs::apps::sweep3d(c, cfg); };
  w.ref_baseline_s = "5.479";
  w.ref_bcs_s = "7.260";
  w.ref_slowdown_pct = "32.50";
  return w;
}

// Fig 9's IS row (bench_fig9_nas): 32 KB all-to-all, so bulk descriptors,
// chunks and payload.
Workload nasIsP64() {
  Workload w;
  w.name = "nas_is_p64";
  w.ranks = 64;
  w.ranks_per_node = 2;
  w.cluster.num_compute_nodes = 32;
  w.baseline.init_overhead = bs::msec(30);
  w.bcs.runtime_init_overhead = bs::msec(1100);
  w.jobs = {Library::kBaseline, Library::kBcsMpi};
  const bcs::apps::IsConfig cfg;
  w.app = [cfg](bcs::mpi::Comm& c) { return bcs::apps::nasIS(c, cfg); };
  w.ref_baseline_s = "10.705";
  w.ref_bcs_s = "12.063";
  w.ref_slowdown_pct = "12.68";
  return w;
}

// bench_engine's sparse job at 2048 nodes through the strobe tree: after
// one ring exchange nearly every slice is control plane only.
constexpr std::size_t kRingBytes = 512;

std::uint8_t ringByte(int from_rank, std::size_t i) {
  return static_cast<std::uint8_t>(
      (static_cast<std::size_t>(from_rank) * 131 + i) & 0xFF);
}

Workload strobeTreeN2048() {
  constexpr int kNodes = 2048;
  Workload w;
  w.name = "strobe_tree_n2048";
  w.ranks = kNodes;
  w.ranks_per_node = 1;
  w.cluster.num_compute_nodes = kNodes;
  w.bcs.runtime_init_overhead = bs::usec(50);
  w.bcs.tree_fanout = 32;
  w.jobs = {Library::kBcsMpi};
  w.app = [](bcs::mpi::Comm& comm) {
    const int P = comm.size();
    const int me = comm.rank();
    const int left = (me + P - 1) % P;
    std::vector<std::uint8_t> out(kRingBytes), in(kRingBytes);
    for (std::size_t i = 0; i < kRingBytes; ++i) out[i] = ringByte(me, i);
    std::vector<bcs::mpi::Request> reqs;
    reqs.push_back(comm.irecv(in.data(), in.size(), left, 0));
    reqs.push_back(comm.isend(out.data(), out.size(), (me + 1) % P, 0));
    comm.waitall(reqs);
    comm.compute(bs::sec(1));
    double sum = 0;
    for (std::size_t i = 0; i < kRingBytes; ++i) {
      if (in[i] != ringByte(left, i)) {
        throw bs::SimError("strobe_tree_n2048: corrupted ring message");
      }
      sum += in[i];
    }
    return sum;
  };
  w.expected_checksum = [](int rank) {
    const int left = (rank + kNodes - 1) % kNodes;
    double sum = 0;
    for (std::size_t i = 0; i < kRingBytes; ++i) sum += ringByte(left, i);
    return sum;
  };
  return w;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      sweep3dBlockingP62(), nasIsP64(), strobeTreeN2048()};
  return all;
}

struct Usage {
  std::int64_t switches = 0;
  double sys_s = 0;
};

Usage processUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Usage{ru.ru_nvcsw + ru.ru_nivcsw,
               static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) / 1e6};
}

std::int64_t processThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::int64_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

/// A job between set-up and teardown.  Members are declared so that the
/// cluster is destroyed last: its processes hold the last references to the
/// runtime or world, as in bcsmpi::runJob and baseline::runJob.
struct LiveJob {
  std::unique_ptr<bcs::net::Cluster> cluster;
  std::shared_ptr<bcs::bcsmpi::Runtime> runtime;
  SetupTimes setup;
  Clock::time_point start, launched, resumed, ready;

  void destroy() {
    runtime.reset();
    cluster.reset();
  }
};

using RankBody = std::function<void(bcs::mpi::Comm&)>;

/// Builds the cluster, launches `body` on every rank and runs the engine
/// through simulated time 0, timing each step.
LiveJob launch(const Workload& wl, Library lib, const std::vector<int>& map,
               const RankBody& body) {
  LiveJob job;
  job.start = Clock::now();
  job.cluster = std::make_unique<bcs::net::Cluster>(wl.cluster);
  job.launched = Clock::now();
  bcs::net::Cluster& cluster = *job.cluster;
  if (lib == Library::kBcsMpi) {
    job.runtime = std::make_shared<bcs::bcsmpi::Runtime>(cluster, wl.bcs);
    bcs::bcsmpi::launchJob(
        *job.runtime, map,
        [runtime = job.runtime, body](bcs::mpi::Comm& c) { body(c); });
  } else {
    auto world = std::make_shared<bcs::baseline::World>(cluster, wl.baseline,
                                                        map);
    for (int r = 0; r < wl.ranks; ++r) {
      cluster.spawn(map[static_cast<std::size_t>(r)],
                    "baseline-rank" + std::to_string(r),
                    [world, r, body](bs::Process& proc) {
                      auto comm = world->init(r, proc);
                      body(*comm);
                    });
    }
  }
  job.resumed = Clock::now();
  cluster.run(0);
  job.ready = Clock::now();
  job.setup = SetupTimes{secondsBetween(job.start, job.launched),
                         secondsBetween(job.launched, job.resumed),
                         secondsBetween(job.resumed, job.ready)};
  return job;
}

/// Start of the first time slice: the slices of the grid the BCS-MPI strobe
/// keeps start at the bring-up cost and then every time_slice.  Baseline
/// jobs are stepped on the same period.
bs::SimTime firstSlice(const Workload& wl, Library lib) {
  return lib == Library::kBcsMpi ? wl.bcs.runtime_init_overhead
                                 : wl.baseline.init_overhead;
}

/// The untraced run: steps the engine one time slice per
/// Cluster::run(until) call and calibrates the host speed after every
/// kStretchS of host time.  Adds the calibrated stretches to res.run_s and
/// res.ref_run_s, and returns the last stretch, not yet calibrated.
double stepCalibrated(const Workload& wl, Library lib, LiveJob& job,
                      HostSpeed& speed, JobResult& res) {
  bcs::net::Cluster& cluster = *job.cluster;
  double stretch = 0;
  Clock::time_point a = Clock::now();
  for (bs::SimTime until = firstSlice(wl, lib) - 1;;
       until += wl.bcs.time_slice) {
    cluster.run(until);
    const Clock::time_point b = Clock::now();
    stretch += secondsBetween(a, b);
    a = b;
    if (cluster.engine().pendingEvents() == 0) return stretch;
    if (stretch >= kStretchS) {
      res.run_s += stretch;
      res.ref_run_s += speed.scale(stretch);
      stretch = 0;
      a = Clock::now();
    }
  }
}

/// The traced run: the same slice steps, each recorded as a span.
void stepOnSliceGrid(const Workload& wl, Library lib, LiveJob& job,
                     Tracer& tracer, int pid, JobTrace& jt) {
  bcs::net::Cluster& cluster = *job.cluster;
  const bs::Duration period = wl.bcs.time_slice;
  const bs::SimTime first = firstSlice(wl, lib);
  const Clock::time_point t0 = Clock::now();
  cluster.run(first - 1);
  tracer.span(pid, 0, "bring-up", "setup", t0, Clock::now(), 0);
  const bcs::bcsmpi::Runtime* rt = job.runtime.get();
  for (bs::SimTime start = first; cluster.engine().pendingEvents() > 0;
       start += period) {
    const bcs::bcsmpi::RuntimeStats before =
        rt ? rt->stats() : bcs::bcsmpi::RuntimeStats{};
    const Clock::time_point a = Clock::now();
    cluster.run(start + period - 1);
    const Clock::time_point b = Clock::now();
    if (rt == nullptr) {
      tracer.span(pid, 0, "step", "baseline", a, b, start);
      continue;
    }
    const bcs::bcsmpi::RuntimeStats& after = rt->stats();
    const bool busy =
        after.descriptors_exchanged != before.descriptors_exchanged ||
        after.chunks_transferred != before.chunks_transferred ||
        after.collectives_scheduled != before.collectives_scheduled;
    const double us = secondsBetween(a, b) * 1e6;
    jt.slice_us.push_back(us);
    if (busy) {
      ++jt.busy_slices;
    } else {
      jt.idle_slice_us.push_back(us);
    }
    jt.root_msgs.push_back(static_cast<double>(after.fanout_msgs_per_slice));
    tracer.span(pid, 0, "slice", busy ? "busy" : "idle", a, b, start);
  }
}

Counters readCounters(const LiveJob& job) {
  Counters c;
  const bs::Engine& engine = job.cluster->engine();
  c.events = engine.executedEvents();
  c.cancelled = engine.cancelledEvents();
  const bcs::net::FabricStats fs = job.cluster->fabric().stats();
  c.unicasts = fs.unicasts;
  c.multicasts = fs.multicasts;
  c.conditionals = fs.conditionals;
  c.payload_bytes = fs.payload_bytes;
  if (job.runtime) {
    const bcs::bcsmpi::RuntimeStats& rs = job.runtime->stats();
    c.slices = rs.slices;
    c.overruns = rs.slice_overruns;
    c.descriptors = rs.descriptors_exchanged;
    c.matches = rs.matches;
    c.chunks = rs.chunks_transferred;
    c.collectives = rs.collectives_scheduled;
  }
  return c;
}

}  // namespace

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

std::vector<int> placement(const Workload& wl, std::uint64_t seed) {
  std::vector<int> map = bcs::baseline::blockMapping(
      wl.ranks, wl.cluster.num_compute_nodes, wl.ranks_per_node);
  if (seed == 0) return map;
  bs::Rng rng(seed);
  for (std::size_t i = map.size() - 1; i > 0; --i) {
    std::swap(map[i], map[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  return map;
}

JobResult runJob(const Workload& wl, Library lib, const std::vector<int>& map,
                 Calibrator& calibrator, Tracer* tracer) {
  JobResult res;
  res.lib = lib;
  res.checksums.assign(static_cast<std::size_t>(wl.ranks), 0.0);
  std::vector<bs::SimTime> finish(static_cast<std::size_t>(wl.ranks), 0);
  const int pid = tracer ? tracer->beginJob(libraryName(lib), wl.ranks) : 0;
  const RankBody body = [&](bcs::mpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    if (tracer) {
      TracedComm traced(comm, *tracer, res.trace, pid);
      res.checksums[r] = wl.app(traced);
    } else {
      res.checksums[r] = wl.app(comm);
    }
    finish[r] = comm.now();
  };

  const Usage u0 = processUsage();
  std::optional<HostSpeed> speed;
  if (tracer == nullptr) speed.emplace(calibrator);
  double last_stretch_s = 0;
  LiveJob job;
  try {
    job = launch(wl, lib, map, body);
    res.setup = job.setup;
    if (speed) res.ref_setup_s = speed->scale(job.setup.total());
    res.peak_threads = processThreads();
    if (tracer) {
      stepOnSliceGrid(wl, lib, job, *tracer, pid, res.trace);
    } else {
      last_stretch_s = stepCalibrated(wl, lib, job, *speed, res);
    }
    res.ok = job.cluster->allProcessesFinished();
    if (!res.ok) {
      res.error = "unfinished ranks:";
      for (const std::string& n : job.cluster->unfinishedProcesses()) {
        res.error += " " + n;
      }
    }
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = e.what();
  }
  if (job.cluster) {
    res.counters = readCounters(job);
    const Clock::time_point drained = Clock::now();
    job.destroy();
    const Clock::time_point end = Clock::now();
    if (speed) {
      last_stretch_s += secondsBetween(drained, end);
      res.run_s += last_stretch_s;
      res.ref_run_s += speed->scale(last_stretch_s);
      res.calibration_s = speed->medianCalibrationS();
    } else {
      res.run_s = secondsBetween(job.ready, end);
    }
    if (tracer) {
      tracer->span(pid, 0, "setup.cluster", "setup", job.start, job.launched,
                   0);
      tracer->span(pid, 0, "setup.launch", "setup", job.launched,
                   job.resumed, 0);
      tracer->span(pid, 0, "setup.first_resume", "setup", job.resumed,
                   job.ready, 0);
      tracer->span(pid, 0, "teardown", "teardown", drained, end, 0);
      tracer->span(pid, 0, "job", libraryName(lib), job.start, end, 0);
    }
  }
  const bs::SimTime last = *std::max_element(finish.begin(), finish.end());
  res.sim_s = bs::toSec(last);
  const Usage u1 = processUsage();
  res.kernel_switches = u1.switches - u0.switches;
  res.sys_s = u1.sys_s - u0.sys_s;
  return res;
}

double setupOnlyRefS(const Workload& wl, Library lib,
                     const std::vector<int>& map, Calibrator& calibrator) {
  HostSpeed speed(calibrator);
  LiveJob job = launch(wl, lib, map, [](bcs::mpi::Comm&) {});
  const double ref_s = speed.scale(job.setup.total());
  job.destroy();
  return ref_s;
}

}  // namespace perfbench
