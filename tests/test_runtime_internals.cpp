// White-box tests of the BCS-MPI runtime: statistics accounting, slice-grid
// behaviour, error reporting, the spin-vs-descheduled wait distinction, the
// DEM drain window, multi-job isolation, and the exactness of idle-suffix
// replay, whole slices and busy slices' tails, and of the flat Strobe
// Sender loop's skipped poll rounds.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "apps/selfsched.hpp"
#include "apps/wavefront.hpp"
#include "bcsmpi/comm.hpp"
#include "bcsmpi/runtime.hpp"
#include "net/cluster.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/format.hpp"
#include "snapshot/scenario.hpp"
#include "snapshot/state_io.hpp"

namespace {

using namespace bcs;
using bcsmpi::BcsMpiConfig;
using mpi::Comm;
using sim::msec;
using sim::usec;

net::ClusterConfig nodes(int n) {
  net::ClusterConfig cfg;
  cfg.num_compute_nodes = n;
  return cfg;
}

BcsMpiConfig fast() {
  BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  return cfg;
}

TEST(RuntimeInternals, StatsCountDescriptorsMatchesAndChunks) {
  net::Cluster cluster(nodes(2));
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, fast());
  bcsmpi::launchJob(*runtime, {0, 1}, [](Comm& comm) {
    char c = 0;
    for (int i = 0; i < 4; ++i) {
      if (comm.rank() == 0) {
        comm.send(&c, 1, 1, i);
      } else {
        comm.recv(&c, 1, 0, i);
      }
    }
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  const auto& st = runtime->stats();
  EXPECT_EQ(st.descriptors_exchanged, 4u);  // one send descriptor each
  EXPECT_EQ(st.matches, 4u);
  EXPECT_EQ(st.chunks_transferred, 4u);  // tiny messages: one chunk each
  EXPECT_EQ(st.collectives_scheduled, 0u);
  EXPECT_EQ(st.microstrobes, 5 * st.slices);
  EXPECT_EQ(st.slice_overruns, 0u);
}

TEST(RuntimeInternals, CollectiveCountersTrackGenerations) {
  net::Cluster cluster(nodes(4));
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, fast());
  bcsmpi::launchJob(*runtime, {0, 1, 2, 3}, [](Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
    double v = comm.rank();
    double out = 0;
    comm.allreduce(&v, &out, 1, mpi::Datatype::kFloat64, mpi::ReduceOp::kSum);
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  EXPECT_EQ(runtime->stats().collectives_scheduled, 4u);
}

TEST(RuntimeInternals, SpinWaitResumesMidSliceButBlockingWaitsForBoundary) {
  // The Figure 2 distinction: Irecv+Wait (spin) continues at the completion
  // instant; blocking MPI_Recv restarts at a slice boundary.
  net::Cluster cluster(nodes(2));
  BcsMpiConfig cfg = fast();
  sim::SimTime spin_resume = -1, blocking_resume = -1;
  bcsmpi::runJob(cluster, cfg, {0, 1}, [&](Comm& comm) {
    char c = 0;
    // Round 1: non-blocking + wait (spin).
    if (comm.rank() == 0) {
      comm.send(&c, 1, 1, 0);
    } else {
      mpi::Request r = comm.irecv(&c, 1, 0, 0);
      comm.wait(r);
      spin_resume = comm.now();
    }
    comm.barrier();
    // Round 2: blocking receive.
    if (comm.rank() == 0) {
      comm.send(&c, 1, 1, 1);
    } else {
      comm.recv(&c, 1, 0, 1);
      blocking_resume = comm.now();
    }
  });
  ASSERT_GT(spin_resume, 0);
  ASSERT_GT(blocking_resume, 0);
  // A blocking-primitive resume lands within the NM wakeup window right
  // after a slice boundary; a spin resume lands mid-slice (during the P2P
  // microphase, >100 us in).  The slice grid is anchored at the runtime
  // bring-up instant (50 us here), not at zero.
  const auto phase_of = [&](sim::SimTime t) {
    return (t - usec(50)) % cfg.time_slice;
  };
  EXPECT_LT(phase_of(blocking_resume), usec(40));
  EXPECT_GT(phase_of(spin_resume), usec(100));
}

TEST(RuntimeInternals, TwoIndependentJobsDoNotInterfere) {
  net::Cluster cluster(nodes(4));
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, fast());
  std::vector<int> sums(2, 0);
  for (int j = 0; j < 2; ++j) {
    // Job 0 on nodes {0,1}, job 1 on nodes {2,3}.
    bcsmpi::launchJob(*runtime, {j * 2, j * 2 + 1}, [&sums, j](Comm& comm) {
      int v = 10 * (j + 1) + comm.rank();
      int got = -1;
      const int peer = 1 - comm.rank();
      mpi::Request rr = comm.irecv(&got, sizeof got, peer, 0);
      comm.send(&v, sizeof v, peer, 0);
      comm.wait(rr);
      if (comm.rank() == 0) sums[static_cast<std::size_t>(j)] = got;
    });
  }
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  EXPECT_EQ(sums[0], 11);  // job 0 got job-0 data, not job 1's
  EXPECT_EQ(sums[1], 21);
}

TEST(RuntimeInternals, CollectiveTypeMismatchThrows) {
  // The BR's pre-processing detects ranks of one job disagreeing on the
  // pending collective when they share a node (cross-node disagreement is
  // undefined behaviour here exactly as in real MPI).
  net::Cluster cluster(nodes(2));
  EXPECT_THROW(
      bcsmpi::runJob(cluster, fast(), {0, 0},  // both ranks on node 0
                     [](Comm& comm) {
                       if (comm.rank() == 0) {
                         comm.barrier();
                       } else {
                         char c = 1;
                         comm.bcast(&c, 1, 0);  // different collective!
                       }
                     }),
      sim::SimError);
}

TEST(RuntimeInternals, ReceiveTruncationThrows) {
  net::Cluster cluster(nodes(2));
  EXPECT_THROW(bcsmpi::runJob(cluster, fast(), {0, 1},
                              [](Comm& comm) {
                                if (comm.rank() == 0) {
                                  char big[64] = {};
                                  comm.send(big, sizeof big, 1, 0);
                                } else {
                                  char tiny[8];
                                  comm.recv(tiny, sizeof tiny, 0, 0);
                                }
                              }),
               sim::SimError);
}

TEST(RuntimeInternals, BadDestinationRankThrows) {
  net::Cluster cluster(nodes(2));
  EXPECT_THROW(bcsmpi::runJob(cluster, fast(), {0, 1},
                              [](Comm& comm) {
                                char c = 0;
                                comm.send(&c, 1, /*dest=*/5, 0);
                              }),
               sim::SimError);
}

// The message of the sim::SimError `run` throws; empty when it throws none.
template <typename Run>
std::string simErrorOf(Run run) {
  try {
    run();
  } catch (const sim::SimError& e) {
    return e.what();
  }
  return "";
}

// A root outside the job fails at the call, as a bad destination does,
// not a slice later inside the BBM or RM.
void expectBadRootThrows(bool reduce) {
  for (const int root : {2, -1}) {
    net::Cluster cluster(nodes(2));
    EXPECT_EQ(simErrorOf([&] {
                bcsmpi::runJob(cluster, fast(), {0, 1}, [&](Comm& comm) {
                  std::int32_t in = 1;
                  std::int32_t out = 0;
                  if (reduce) {
                    comm.reduce(&in, &out, 1, mpi::Datatype::kInt32,
                                mpi::ReduceOp::kSum, root);
                  } else {
                    comm.bcast(&in, sizeof in, root);
                  }
                });
              }),
              "postCollective: bad root rank " + std::to_string(root));
  }
}

TEST(RuntimeInternals, BadBcastRootThrows) { expectBadRootThrows(false); }

TEST(RuntimeInternals, BadReduceRootThrows) { expectBadRootThrows(true); }

// A receive or probe source outside the job fails at the call, as a bad
// destination does: not from the DEM drain's node lookup a slice later,
// and not as a probe that can never see a message.  Any-source passes.
void expectBadSourceThrows(bool probe) {
  for (const int src : {2, 5, -7}) {
    net::Cluster cluster(nodes(2));
    EXPECT_EQ(simErrorOf([&] {
                bcsmpi::runJob(cluster, fast(), {0, 1}, [&](Comm& comm) {
                  char c = 0;
                  mpi::Status st;
                  if (probe) {
                    EXPECT_FALSE(comm.probe(mpi::kAnySource, 0, &st, false));
                    comm.probe(src, 0, &st, /*blocking=*/false);
                  } else {
                    mpi::Request any = comm.irecv(&c, 1, mpi::kAnySource, 0);
                    EXPECT_FALSE(any.null());
                    comm.irecv(&c, 1, src, 0);
                  }
                });
              }),
              std::string(probe ? "probe" : "postRecv") +
                  ": bad source rank " + std::to_string(src));
  }
}

TEST(RuntimeInternals, BadRecvSourceThrows) { expectBadSourceThrows(false); }

TEST(RuntimeInternals, BadProbeSourceThrows) { expectBadSourceThrows(true); }

TEST(RuntimeInternals, BlockingCallsOnADetachedRankThrow) {
  // A detached rank has no fiber to deschedule; it polls with testRequest.
  for (const bool probe : {false, true}) {
    net::Cluster cluster(nodes(2));
    bcsmpi::Runtime rt(cluster, fast());
    const int job = rt.createJob({0, 1});
    rt.registerDetachedRank(job, 0);
    rt.registerDetachedRank(job, 1);
    std::array<char, 8> buf{};
    cluster.engine().at(usec(100), [&] {
      mpi::Status st;
      if (probe) {
        rt.probe(job, 1, 0, 0, &st, /*blocking=*/true);
      } else {
        const std::uint64_t req =
            rt.postRecv(job, 1, buf.data(), buf.size(), 0, 0);
        rt.waitRequest(job, 1, req, &st);
      }
    });
    EXPECT_EQ(simErrorOf([&] { cluster.run(msec(2)); }),
              std::string(probe ? "probe" : "waitRequest") +
                  ": rank 1 is detached; poll with testRequest");
  }
}

TEST(RuntimeInternals, DrainWindowCatchesBoundaryPosts) {
  // A process woken at the slice boundary that immediately posts catches
  // the *current* slice (FIFO drain semantics) — its blocking op costs
  // ~1 slice, not ~2.
  net::Cluster cluster(nodes(2));
  BcsMpiConfig cfg = fast();
  std::vector<double> delays;
  bcsmpi::runJob(cluster, cfg, {0, 1}, [&](Comm& comm) {
    char c = 0;
    // The first blocking op aligns both ranks to a boundary; afterwards
    // each iteration posts immediately upon restart.
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) {
        const sim::SimTime t0 = comm.now();
        comm.send(&c, 1, 1, i);
        if (i > 0) delays.push_back(sim::toUsec(comm.now() - t0));
      } else {
        comm.recv(&c, 1, 0, i);
      }
    }
  });
  ASSERT_FALSE(delays.empty());
  const double slice_us = sim::toUsec(cfg.time_slice);
  for (double d : delays) {
    EXPECT_LT(d, 1.2 * slice_us) << "boundary post missed the drain window";
  }
}

TEST(RuntimeInternals, IprobeNonBlockingReturnsFalseThenTrue) {
  net::Cluster cluster(nodes(2));
  bool early = true, late = false;
  bcsmpi::runJob(cluster, fast(), {0, 1}, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(msec(2));
      char c = 7;
      comm.send(&c, 1, 1, 3);
    } else {
      mpi::Status st;
      early = comm.probe(0, 3, &st, /*blocking=*/false);
      while (!comm.probe(0, 3, &st, /*blocking=*/false)) {
        comm.compute(usec(200));
      }
      late = true;
      EXPECT_EQ(st.bytes, 1u);
      char c = 0;
      comm.recv(&c, 1, 0, 3);
      EXPECT_EQ(c, 7);
    }
  });
  EXPECT_FALSE(early);
  EXPECT_TRUE(late);
}

TEST(RuntimeInternals, StrobeStopsWhenAllJobsFinish) {
  net::Cluster cluster(nodes(2));
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, fast());
  bcsmpi::launchJob(*runtime, {0, 1}, [](Comm& comm) {
    comm.barrier();
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  const auto slices_at_finish = runtime->stats().slices;
  // The engine drained: no further strobes are pending.
  EXPECT_EQ(cluster.engine().pendingEvents(), 0u);
  EXPECT_LT(slices_at_finish, 30u);  // a short job stops strobing promptly
}

TEST(RuntimeInternals, SnapshotOfFreshRuntimeIsEmptyAndQuiescent) {
  net::Cluster cluster(nodes(2));
  bcsmpi::Runtime runtime(cluster, fast());
  const auto record = runtime.snapshot();
  EXPECT_TRUE(record.quiescent);
  EXPECT_TRUE(record.jobs.empty());
  EXPECT_EQ(record.nodes.size(), 2u);
  for (const auto& n : record.nodes) {
    EXPECT_EQ(n.fresh_sends + n.fresh_recvs + n.unmatched_remote +
                  n.unmatched_recvs + n.partial_messages,
              0u);
  }
}

// ---------------------------------------------------------------------------
// Idle-suffix replay is exact (DESIGN.md §5b).  Each scenario runs twice: as
// is, and with a no-op engine event every 1 us, which lies inside the
// window of every replay, from any microstrobe, so every slice is simulated
// normally.  The periodic snapshot sink is the per-boundary hook of both
// runs.
// ---------------------------------------------------------------------------

struct Boundary {
  std::uint64_t slice = 0;
  sim::SimTime at = 0;
  bcsmpi::RuntimeStats runtime;
  net::FabricStats fabric;
};

struct ReplayRun {
  std::vector<Boundary> boundaries;
  /// Engine events executed by each boundary (its startSlice included).
  std::vector<std::uint64_t> events;
  std::vector<sim::SimTime> finish;
  std::vector<std::uint64_t> results;
};

struct ReplayScenario {
  net::ClusterConfig cluster;
  BcsMpiConfig mpi = fast();
  std::vector<int> map;
  std::function<std::uint64_t(Comm&)> body;
  sim::SimTime until = INT64_MAX;
  /// Runs after the job's launch, before the engine starts.
  std::function<void(net::Cluster&, bcsmpi::Runtime&)> extra;
  /// When set, run() first stops at `pause`, this runs outside the engine,
  /// and run() goes on.
  std::function<void(net::Cluster&, bcsmpi::Runtime&)> at_pause;
  sim::SimTime pause = 0;
};

/// A no-op engine event every 1 us from now on, while `more()` holds.  Every
/// replay's window, however short, then holds one, so every replay declines
/// and every slice is simulated.  It must stay put while it ticks.
struct Ticker {
  Ticker(sim::Engine& engine, std::function<bool()> more)
      : engine(engine), more(std::move(more)) {
    engine.at(engine.now(), [this] { tick(); });
  }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;
  void tick() {
    ++ticks;
    if (more()) engine.after(usec(1), [this] { tick(); });
  }
  sim::Engine& engine;
  std::function<bool()> more;
  std::uint64_t ticks = 0;  ///< fired so far
};

/// Records one slice boundary.  The engine events leave out the ticks of
/// `ticker`, when there is one.
void atBoundary(ReplayRun& out, net::Cluster& cluster,
                const bcsmpi::Runtime& rt, const Ticker* ticker) {
  sim::Engine& engine = cluster.engine();
  out.boundaries.push_back(Boundary{rt.sliceIndex(), engine.now(), rt.stats(),
                                    cluster.fabric().stats()});
  out.events.push_back(engine.executedEvents() -
                       (ticker != nullptr ? ticker->ticks : 0));
}

ReplayRun runReplayScenario(const ReplayScenario& sc, bool decline) {
  net::Cluster cluster(sc.cluster);
  BcsMpiConfig cfg = sc.mpi;
  cfg.checkpoint_every_slices = 1;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  ReplayRun out;
  out.results.assign(sc.map.size(), 0);
  std::optional<Ticker> ticker;
  runtime->setSnapshotSink(
      [&out, &cluster, rt = runtime.get(), &ticker](std::uint64_t) {
        atBoundary(out, cluster, *rt, ticker ? &*ticker : nullptr);
      });
  bcsmpi::launchJob(
      *runtime, sc.map,
      [&out, &sc](Comm& comm) {
        out.results[static_cast<std::size_t>(comm.rank())] = sc.body(comm);
      },
      &out.finish);
  if (sc.extra) sc.extra(cluster, *runtime);
  if (decline) {
    ticker.emplace(cluster.engine(), [&cluster, until = sc.until] {
      return !cluster.allProcessesFinished() && cluster.engine().now() < until;
    });
  }
  if (sc.at_pause) {
    cluster.run(sc.pause);
    sc.at_pause(cluster, *runtime);
  }
  cluster.run(sc.until);
  EXPECT_TRUE(cluster.allProcessesFinished());
  return out;
}

void expectSameBoundaries(const ReplayRun& a, const ReplayRun& b) {
  ASSERT_EQ(a.boundaries.size(), b.boundaries.size());
  for (std::size_t i = 0; i < a.boundaries.size(); ++i) {
    const Boundary& x = a.boundaries[i];
    const Boundary& y = b.boundaries[i];
    EXPECT_EQ(x.slice, y.slice) << "boundary " << i;
    EXPECT_EQ(x.at, y.at) << "boundary " << i;
    EXPECT_TRUE(x.runtime == y.runtime) << "RuntimeStats at slice " << x.slice;
    EXPECT_TRUE(x.fabric == y.fabric) << "FabricStats at slice " << x.slice;
  }
}

/// Runs `sc` both ways, checks they agree, and returns the as-is run.
ReplayRun expectReplayExact(const ReplayScenario& sc) {
  const ReplayRun replayed = runReplayScenario(sc, /*decline=*/false);
  const ReplayRun simulated = runReplayScenario(sc, /*decline=*/true);
  expectSameBoundaries(replayed, simulated);
  EXPECT_EQ(replayed.finish, simulated.finish);
  EXPECT_EQ(replayed.results, simulated.results);
  return replayed;
}

/// Slices (between consecutive boundaries) that executed exactly one engine
/// event — their next startSlice, nothing else.
std::size_t oneEventSlices(const ReplayRun& run) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < run.events.size(); ++i) {
    if (run.events[i] - run.events[i - 1] == 1) ++n;
  }
  return n;
}

/// Expects every steady-state slice from the first replayed one on to be
/// replayed: its interval runs its successor's startSlice and, at most once
/// every `watchdog_slices` − 1 slices, the watchdog timer just before it
/// (DESIGN.md §4c).  Steady state: the slices that exchanged, chunked and
/// scheduled nothing (perfbench's idle classification) between two that
/// did neither, so no rank posted, was woken or finished in them.
void expectAllReplayed(const ReplayRun& run, int watchdog_slices) {
  const auto moved = [&run](std::size_t i) {
    const bcsmpi::RuntimeStats& a = run.boundaries[i - 1].runtime;
    const bcsmpi::RuntimeStats& b = run.boundaries[i].runtime;
    return a.descriptors_exchanged != b.descriptors_exchanged ||
           a.chunks_transferred != b.chunks_transferred ||
           a.collectives_scheduled != b.collectives_scheduled;
  };
  std::size_t steady = 0;
  std::size_t last_timer = 0;
  bool started = false;
  for (std::size_t i = 2; i + 1 < run.boundaries.size(); ++i) {
    const std::uint64_t events = run.events[i] - run.events[i - 1];
    started = started || events == 1;
    if (!started || moved(i - 1) || moved(i) || moved(i + 1)) continue;
    ++steady;
    EXPECT_LE(events, 2u) << "slice " << run.boundaries[i - 1].slice
                          << " was not replayed";
    if (events != 2) continue;
    if (last_timer > 0) {
      EXPECT_GE(i - last_timer, static_cast<std::size_t>(watchdog_slices - 1))
          << "two extra events within " << watchdog_slices - 1
          << " slices, at slice " << run.boundaries[i - 1].slice;
    }
    last_timer = i;
  }
  ASSERT_GT(steady, 100u);
}

std::vector<int> blockMap(int nodes, int ranks_per_node) {
  std::vector<int> map;
  for (int n = 0; n < nodes; ++n) {
    for (int k = 0; k < ranks_per_node; ++k) map.push_back(n);
  }
  return map;
}

/// bench_engine's sparse job: a ring exchange, then a long compute, twice.
std::uint64_t sparseRing(Comm& comm, sim::Duration compute) {
  const int P = comm.size();
  const int me = comm.rank();
  std::uint64_t sum = 0;
  for (int round = 0; round < 2; ++round) {
    std::array<std::uint8_t, 64> out{};
    std::array<std::uint8_t, 64> in{};
    out.fill(static_cast<std::uint8_t>(me * 7 + round));
    std::vector<mpi::Request> reqs;
    reqs.push_back(comm.irecv(in.data(), in.size(), (me + P - 1) % P, round));
    reqs.push_back(comm.isend(out.data(), out.size(), (me + 1) % P, round));
    comm.waitall(reqs);
    comm.compute(compute);
    for (std::uint8_t b : in) sum += b;
  }
  return sum;
}

ReplayScenario sparseScenario(int node_count, int ranks_per_node,
                              sim::Duration compute) {
  ReplayScenario sc;
  sc.cluster = nodes(node_count);
  sc.map = blockMap(node_count, ranks_per_node);
  sc.body = [compute](Comm& comm) { return sparseRing(comm, compute); };
  return sc;
}

TEST(SliceReplay, FlatSparseJobMatchesSimulatedSlices) {
  const ReplayScenario sc = sparseScenario(32, 1, msec(40));
  expectAllReplayed(expectReplayExact(sc), sc.mpi.watchdog_slices);
}

TEST(SliceReplay, TreeSparseJobMatchesSimulatedSlices) {
  ReplayScenario sc = sparseScenario(256, 1, msec(40));
  sc.mpi.tree_fanout = 16;
  expectAllReplayed(expectReplayExact(sc), sc.mpi.watchdog_slices);
}

TEST(SliceReplay, TwoRanksPerNodeMatchesSimulatedSlices) {
  const ReplayRun run = expectReplayExact(sparseScenario(16, 2, msec(10)));
  EXPECT_GT(oneEventSlices(run), 0u);
}

TEST(SliceReplay, CollectivesMatchSimulatedSlices) {
  ReplayScenario sc;
  sc.cluster = nodes(8);
  sc.map = blockMap(8, 1);
  sc.body = [](Comm& comm) {
    std::uint64_t sum = 0;
    for (int i = 0; i < 3; ++i) {
      comm.compute(msec(3) + usec(170) * comm.rank());
      comm.barrier();
      double v = comm.rank() + i;
      double total = 0;
      comm.allreduce(&v, &total, 1, mpi::Datatype::kFloat64,
                     mpi::ReduceOp::kSum);
      int word = comm.rank() == 2 ? 40 + i : 0;
      comm.bcast(&word, sizeof word, 2);
      sum += static_cast<std::uint64_t>(total) * 100 +
             static_cast<std::uint64_t>(word);
    }
    return sum;
  };
  const ReplayRun run = expectReplayExact(sc);
  EXPECT_GT(oneEventSlices(run), 0u);
}

TEST(SliceReplay, RmaSelfSchedulerMatchesSimulatedSlices) {
  ReplayScenario sc;
  sc.cluster = nodes(8);
  sc.map = blockMap(8, 1);
  sc.body = [](Comm& comm) {
    apps::SelfSchedConfig cfg;
    cfg.chunks = 48;
    cfg.base_cost = usec(600);
    cfg.cost_ramp = 4.0;
    const std::uint64_t first = apps::selfSchedule(comm, cfg).digest;
    comm.compute(msec(4));  // an idle stretch between two loops
    return first ^ apps::selfSchedule(comm, cfg).digest;
  };
  const ReplayRun run = expectReplayExact(sc);
  EXPECT_GT(oneEventSlices(run), 0u);
}

TEST(SliceReplay, VerifyOnMatchesSimulatedSlices) {
  ReplayScenario sc = sparseScenario(8, 1, msec(10));
  sc.mpi.verify = true;
  const ReplayRun run = expectReplayExact(sc);
  EXPECT_GT(oneEventSlices(run), 0u);
}

TEST(SliceReplay, DropRateFaultsMatchSimulatedSlices) {
  ReplayScenario sc = sparseScenario(16, 1, msec(10));
  sc.cluster.seed = 91;
  sc.cluster.faults.dropRate(0.05);
  const ReplayRun run = expectReplayExact(sc);
  EXPECT_GT(oneEventSlices(run), 0u);
}

/// 350 us into slice k: after an idle slice's RM completion, so what a
/// rank does then falls between two replayed slices.
sim::SimTime betweenSlices(int k) {
  return usec(50) + k * usec(500) + usec(350);
}

void computeUntil(Comm& comm, sim::SimTime t) { comm.compute(t - comm.now()); }

TEST(SliceReplay, RankWorkBetweenIdleSlicesMatches) {
  // One rank at a time acts after idle slices: a lone receive for a send
  // that has waited at its node since the start, a lone send for a posted
  // receive, a blocking probe four slices before its message is sent, the
  // first arrival at a barrier, and a put, a get and a fetch-add.  Each is
  // NIC work queued between two replayed slices, which the next slice must
  // notice.
  for (const int fanout : {0, 4}) {
    auto probing = std::make_shared<std::array<sim::SimTime, 2>>();
    ReplayScenario sc;
    sc.cluster = nodes(16);
    sc.map = blockMap(16, 1);
    sc.mpi.tree_fanout = fanout;
    sc.body = [probing](Comm& comm) -> std::uint64_t {
      bcsmpi::BcsApi& api = dynamic_cast<bcsmpi::BcsComm&>(comm).api();
      const bcsmpi::BcsWindow win{0};  // rank 7's first window
      std::array<std::uint8_t, 64> buf{};
      std::int64_t word = 0;
      std::uint64_t result = 0;
      switch (comm.rank()) {
        case 0:  // a lone send for a receive posted at the start
          computeUntil(comm, betweenSlices(8));
          buf.fill(1);
          comm.send(buf.data(), buf.size(), 4, 2);
          break;
        case 1: {  // a blocking probe four slices before its message
          computeUntil(comm, betweenSlices(12));
          mpi::Status st;
          (*probing)[0] = comm.now();
          comm.probe(5, 5, &st, /*blocking=*/true);
          (*probing)[1] = comm.now();
          comm.recv(buf.data(), st.bytes, 5, 5);
          result = st.bytes * 100 + buf[0];
          break;
        }
        case 2:  // a send that waits at rank 3's node from the start
          buf.fill(3);
          comm.send(buf.data(), buf.size(), 3, 1);
          break;
        case 3:  // its lone receive
          computeUntil(comm, betweenSlices(4));
          comm.recv(buf.data(), buf.size(), 2, 1);
          result = buf[0];
          break;
        case 4:
          comm.recv(buf.data(), buf.size(), 0, 2);
          result = buf[0];
          break;
        case 5:
          computeUntil(comm, betweenSlices(16));
          buf.fill(6);
          comm.send(buf.data(), buf.size(), 1, 5);
          break;
        case 7:
          api.winCreate(&word, sizeof word);
          break;
        default:
          break;
      }
      // Rank 6 reaches the barrier two slices before everyone else.
      computeUntil(comm, betweenSlices(comm.rank() == 6 ? 20 : 22));
      comm.barrier();
      switch (comm.rank()) {
        case 8: {
          const std::int64_t v = 40;
          computeUntil(comm, betweenSlices(26));
          api.put(&v, sizeof v, 7, win, 0);
          break;
        }
        case 9: {
          std::int64_t got = 0;
          computeUntil(comm, betweenSlices(30));
          api.get(&got, sizeof got, 7, win, 0);
          result = static_cast<std::uint64_t>(got);
          break;
        }
        case 10:
          computeUntil(comm, betweenSlices(34));
          result = static_cast<std::uint64_t>(api.fetchAdd(7, win, 0, 2));
          break;
        default:
          break;
      }
      computeUntil(comm, betweenSlices(38));
      comm.barrier();  // the window outlives every op on it
      return comm.rank() == 7 ? static_cast<std::uint64_t>(word) : result;
    };
    const ReplayRun run = expectReplayExact(sc);
    const std::vector<std::uint64_t> want = {0, 6400 + 6, 0, 3, 1, 0,
                                             0, 42, 0, 40, 40};
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(run.results[r], want[r])
          << "rank " << r << ", fanout " << fanout;
    }
    // The blocked prober's Node Manager wakes it at every slice start to
    // look again, so no slice that starts while it waits is replayed.
    std::size_t waited = 0;
    for (std::size_t i = 1; i < run.boundaries.size(); ++i) {
      const sim::SimTime start = run.boundaries[i - 1].at;
      if (start <= (*probing)[0] || start >= (*probing)[1]) continue;
      ++waited;
      EXPECT_GT(run.events[i] - run.events[i - 1], 1u)
          << "slice " << run.boundaries[i - 1].slice << ", fanout " << fanout;
    }
    EXPECT_GE(waited, 3u) << fanout;
    // The premise: each lone action lands in a replayed slice, which runs
    // only its own events and the rank's (a simulated one runs over 50).
    for (const int k : {4, 8, 12, 20, 26, 30, 34}) {
      const sim::SimTime t = betweenSlices(k);
      std::size_t i = 1;
      while (i < run.boundaries.size() && run.boundaries[i].at <= t) ++i;
      ASSERT_LT(i, run.boundaries.size());
      EXPECT_LT(run.events[i] - run.events[i - 1], 10u)
          << "slice " << k << ", fanout " << fanout;
    }
  }
}

TEST(SliceReplay, SecondJobUnderGangSchedulingMatches) {
  // A second job arrives between two replayed slices.  From then on the
  // Node Manager picks one job per slice, so no slice is quiescent.
  ReplayScenario sc = sparseScenario(8, 1, msec(6));
  sc.mpi.gang_scheduling = true;
  sc.extra = [](net::Cluster& cluster, bcsmpi::Runtime& rt) {
    cluster.engine().at(betweenSlices(4), [&rt] {
      bcsmpi::launchJob(rt, blockMap(8, 1),
                        [](Comm& comm) { comm.compute(msec(3)); });
    });
  };
  const ReplayRun run = expectReplayExact(sc);
  EXPECT_GT(oneEventSlices(run), 0u);
}

TEST(SliceReplay, HangInsideAnIdleWindowDeclinesAndMatches) {
  // Slices start at 50 us + k * 500 us.  Node 5 hangs 30 us into slice 20,
  // while every rank computes: nothing but the fault is in that window.
  constexpr int kSlice = 20;
  const sim::SimTime hang_at = usec(50) + kSlice * usec(500) + usec(30);
  ReplayScenario sc = sparseScenario(8, 1, msec(20));
  sc.cluster.faults.hangNode(5, hang_at, usec(300));
  const ReplayRun run = expectReplayExact(sc);
  // Idle slices before the hang were replayed, the hung one was not.
  std::size_t hung = 0;
  while (hung + 1 < run.boundaries.size() &&
         run.boundaries[hung + 1].at <= hang_at) {
    ++hung;
  }
  ASSERT_EQ(run.boundaries[hung].slice, static_cast<std::uint64_t>(kSlice));
  ASSERT_GT(hung, 0u);
  ASSERT_LT(hung + 1, run.events.size());
  EXPECT_GT(run.events[hung + 1] - run.events[hung], 1u);
  EXPECT_EQ(run.events[hung] - run.events[hung - 1], 1u);
}

TEST(SliceReplay, StrobeSenderCrashAfterIdleSlicesMatches) {
  // The management node dies in an idle stretch.  The watchdog deadlines
  // come from replayed last_strobe values, the backup's recovery poll reads
  // replayed phase_done replicas (the tree's also replayed rack books), and
  // the new Strobe Sender is a compute node that strobes itself through
  // NIC-local memory, which the template recorded after the election holds.
  for (const int fanout : {0, 4}) {
    ReplayScenario sc = sparseScenario(16, 1, msec(20));
    sc.mpi.tree_fanout = fanout;
    sc.cluster.faults.crashManagementNode(usec(50) + 12 * usec(500) +
                                          usec(250));
    sc.until = msec(200);
    const ReplayRun run = expectReplayExact(sc);
    ASSERT_FALSE(run.boundaries.empty());
    EXPECT_EQ(run.boundaries.back().runtime.elections, 1u) << fanout;
    std::size_t replayed_after = 0;
    for (std::size_t i = 1; i < run.boundaries.size(); ++i) {
      if (run.boundaries[i - 1].runtime.elections == 1 &&
          run.events[i] - run.events[i - 1] == 1) {
        ++replayed_after;
      }
    }
    EXPECT_GT(replayed_after, 0u) << fanout;
  }
}

TEST(SliceReplay, ObserversInsideAnIdleSliceSeeItUnderWay) {
  // Whoever looks at the runtime while a slice is under way sees it under
  // way, not replayed to its end: a run() bound inside the slice declines
  // the replay, and so does an engine event inside it.
  net::Cluster cluster(nodes(8));
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, fast());
  bcsmpi::launchJob(*runtime, blockMap(8, 1),
                    [](Comm& comm) { comm.compute(msec(20)); });
  const auto under_way = [&runtime] {
    // Only the slice's DEM strobe is out.
    const bcsmpi::RuntimeStats& st = runtime->stats();
    return st.microstrobes == 5 * (st.slices - 1) + 1;
  };
  // Slices start at 50 us + k * 500 us; the earlier ones were replayed.
  const auto slice = [](int k) { return usec(50) + k * usec(500); };
  cluster.run(slice(10) + usec(10));
  EXPECT_EQ(runtime->stats().slices, 11u);
  EXPECT_TRUE(under_way());
  EXPECT_LT(cluster.engine().executedEvents(), 11u * 20u);
  bool seen = false;
  cluster.engine().at(slice(14) + usec(10), [&] { seen = under_way(); });
  cluster.run();
  EXPECT_TRUE(cluster.allProcessesFinished());
  EXPECT_TRUE(seen);
}

// ---------------------------------------------------------------------------
// The flat Strobe Sender loop is exact (DESIGN.md §5b, "The flat Strobe
// Sender loop").  Each scenario runs traced twice: as is, and with a no-op
// engine event re-filed every 1 us.  The tick lies between every failed
// poll round and the next, 5 us later, so no round is skipped.  (NIC timer
// ranges form inside one event's callbacks, where no tick can fall, so
// both runs form them; EventRunRange in test_sim.cpp checks ranges against
// plain events.)  Both runs must agree on every slice boundary's counters,
// on every rank's finish time and result, and on the whole trace.
// ---------------------------------------------------------------------------

struct LoopRun {
  ReplayRun run;
  std::string trace;
  std::vector<sim::SimTime> polls;  ///< issue instants of the phase polls
  /// Instants of the BBM and RM microstrobes, and of the P2P ones.
  std::vector<sim::SimTime> tail_strobes;
  std::vector<sim::SimTime> p2p_strobes;
  std::uint64_t events = 0;  ///< engine events executed, the ticks' excluded
  std::size_t unfinished = 0;
  /// At the scenario's pause: the counters and the trace so far.
  bcsmpi::RuntimeStats paused_runtime;
  net::FabricStats paused_fabric;
  std::string paused_trace;
};

LoopRun runFlatLoop(const ReplayScenario& sc, bool tick,
                    sim::SimTime pause = INT64_MAX) {
  net::Cluster cluster(sc.cluster);
  cluster.trace().enable();
  BcsMpiConfig cfg = sc.mpi;
  cfg.checkpoint_every_slices = 1;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  LoopRun out;
  out.run.results.assign(sc.map.size(), 0);
  std::optional<Ticker> ticker;
  runtime->setSnapshotSink(
      [&out, &cluster, rt = runtime.get(), &ticker](std::uint64_t) {
        atBoundary(out.run, cluster, *rt, ticker ? &*ticker : nullptr);
      });
  bcsmpi::launchJob(
      *runtime, sc.map,
      [&out, &sc](Comm& comm) {
        out.run.results[static_cast<std::size_t>(comm.rank())] = sc.body(comm);
      },
      &out.run.finish);
  if (sc.extra) sc.extra(cluster, *runtime);
  if (tick) {
    ticker.emplace(cluster.engine(),
                   [&cluster] { return !cluster.allProcessesFinished(); });
  }
  if (pause != INT64_MAX) {
    cluster.run(pause);
    out.paused_runtime = runtime->stats();
    out.paused_fabric = cluster.fabric().stats();
    out.paused_trace = cluster.trace().dump();
  }
  cluster.run(sc.until);
  out.trace = cluster.trace().dump();
  for (const sim::TraceRecord& r : cluster.trace().records()) {
    if (r.message.starts_with("Compare-And-Write phase_done")) {
      out.polls.push_back(r.time);
    }
    if (r.message.starts_with("microstrobe BBM") ||
        r.message.starts_with("microstrobe RM")) {
      out.tail_strobes.push_back(r.time);
    }
    if (r.message.starts_with("microstrobe P2P")) {
      out.p2p_strobes.push_back(r.time);
    }
  }
  out.events = cluster.engine().executedEvents() - (ticker ? ticker->ticks : 0);
  out.unfinished = cluster.unfinishedProcesses().size();
  return out;
}

/// Runs `sc` both ways, checks they agree, and returns the as-is run.
LoopRun expectFlatLoopExact(const ReplayScenario& sc,
                            sim::SimTime pause = INT64_MAX) {
  LoopRun as_is = runFlatLoop(sc, /*tick=*/false, pause);
  const LoopRun ticked = runFlatLoop(sc, /*tick=*/true, pause);
  expectSameBoundaries(as_is.run, ticked.run);
  EXPECT_EQ(as_is.run.finish, ticked.run.finish);
  EXPECT_EQ(as_is.run.results, ticked.run.results);
  EXPECT_EQ(as_is.unfinished, ticked.unfinished);
  EXPECT_TRUE(as_is.paused_runtime == ticked.paused_runtime);
  EXPECT_TRUE(as_is.paused_fabric == ticked.paused_fabric);
  EXPECT_EQ(as_is.paused_trace, ticked.paused_trace);
  EXPECT_EQ(as_is.trace, ticked.trace);
  EXPECT_GT(as_is.run.boundaries.size(), 5u);
  // The as-is run skipped poll rounds the ticked one ran, two events each.
  EXPECT_LT(as_is.events, ticked.events);
  return as_is;
}

/// Slice k's start: the ranks register after the 50 us bring-up.
sim::SimTime sliceStart(int k) { return usec(50) + k * usec(500); }

TEST(FlatLoop, SparseJobMatchesEveryRoundRun) {
  expectFlatLoopExact(sparseScenario(32, 1, msec(3)));
}

/// SWEEP3D's shape at 62 ranks, two per node, cut down to one time step
/// of two sweeps.
ReplayScenario blockingWavefront() {
  ReplayScenario sc;
  sc.cluster = nodes(31);
  sc.map = blockMap(31, 2);
  sc.body = [](Comm& comm) {
    apps::Sweep3dConfig cfg;
    cfg.time_steps = 1;
    cfg.sweeps_per_step = 2;
    cfg.blocks = 2;
    cfg.step_compute = usec(700);
    return static_cast<std::uint64_t>(apps::sweep3d(comm, cfg) * 1e6);
  };
  return sc;
}

TEST(FlatLoop, BlockingWavefrontMatchesEveryRoundRun) {
  expectFlatLoopExact(blockingWavefront());
}

TEST(FlatLoop, CollectivesMatchEveryRoundRun) {
  ReplayScenario sc;
  sc.cluster = nodes(8);
  sc.map = blockMap(8, 1);
  sc.body = [](Comm& comm) {
    std::uint64_t sum = 0;
    for (int i = 0; i < 3; ++i) {
      comm.compute(usec(900) + usec(170) * comm.rank());
      comm.barrier();
      double v = comm.rank() + i;
      double total = 0;
      comm.allreduce(&v, &total, 1, mpi::Datatype::kFloat64,
                     mpi::ReduceOp::kSum);
      int word = comm.rank() == 2 ? 40 + i : 0;
      comm.bcast(&word, sizeof word, 2);
      sum += static_cast<std::uint64_t>(total) * 100 +
             static_cast<std::uint64_t>(word);
    }
    return sum;
  };
  expectFlatLoopExact(sc);
}

TEST(FlatLoop, RmaSelfSchedulerMatchesEveryRoundRun) {
  ReplayScenario sc;
  sc.cluster = nodes(8);
  sc.map = blockMap(8, 1);
  sc.body = [](Comm& comm) {
    apps::SelfSchedConfig cfg;
    cfg.chunks = 24;
    cfg.base_cost = usec(600);
    cfg.cost_ramp = 4.0;
    return apps::selfSchedule(comm, cfg).digest;
  };
  expectFlatLoopExact(sc);
}

TEST(FlatLoop, DropRateFaultsMatchEveryRoundRun) {
  ReplayScenario sc = sparseScenario(16, 1, msec(2));
  sc.cluster.seed = 91;
  sc.cluster.faults.dropRate(0.05);
  const LoopRun run = expectFlatLoopExact(sc);
  EXPECT_GT(run.run.boundaries.back().runtime.retransmits, 0u);
}

TEST(FlatLoop, StrobeSenderCrashWithComputeNodeBackupMatches) {
  // The management node dies 30 us into slice 12, while the DEM's polls
  // run; compute node 0 takes over and strobes itself through NIC-local
  // memory.
  ReplayScenario sc = sparseScenario(16, 1, msec(8));
  sc.cluster.faults.crashManagementNode(sliceStart(12) + usec(30));
  sc.until = msec(60);
  const LoopRun run = expectFlatLoopExact(sc);
  EXPECT_EQ(run.run.boundaries.back().runtime.elections, 1u);
  EXPECT_EQ(run.unfinished, 0u);
}

TEST(FlatLoop, EvictionInsideAMicrophaseMatches) {
  // Node 5 crashes 30 us into slice 6 and is evicted there, mid-DEM; its
  // ring neighbours' second exchange fails.
  ReplayScenario sc = sparseScenario(16, 1, msec(4));
  const sim::SimTime crash = sliceStart(6) + usec(30);
  sc.cluster.faults.crashNode(5, crash);
  sc.until = msec(30);
  sc.extra = [crash](net::Cluster& cluster, bcsmpi::Runtime& rt) {
    cluster.engine().at(crash, [&rt] { rt.notifyNodeFailure(5); });
  };
  const LoopRun run = expectFlatLoopExact(sc);
  EXPECT_EQ(run.run.boundaries.back().runtime.evictions, 1u);
  EXPECT_GT(run.run.boundaries.back().runtime.requests_failed, 0u);
}

TEST(FlatLoop, RunBoundInsideAPollWindowMatches) {
  // run() stops 33 us into slice 4, between two DEM poll rounds: the run so
  // far must hold no round issued after the bound.
  const LoopRun run = expectFlatLoopExact(sparseScenario(16, 1, msec(4)),
                                          sliceStart(4) + usec(33));
  EXPECT_GT(run.paused_fabric.conditionals, 0u);
}

TEST(FlatLoop, EventAtAPollIssueInstantMatches) {
  // An engine event due exactly when a round is issued fires first, since
  // it was filed first, and records a line before the round's.  A round is
  // therefore counted ahead only while the round after it is due before
  // the next event's own instant.
  ReplayScenario sc = sparseScenario(16, 1, msec(3));
  std::vector<sim::SimTime> probes;
  for (const sim::SimTime t : runFlatLoop(sc, /*tick=*/false).polls) {
    if (t > sliceStart(3) && t < sliceStart(4)) probes.push_back(t);
  }
  ASSERT_GT(probes.size(), 10u);
  sc.extra = [probes](net::Cluster& cluster, bcsmpi::Runtime&) {
    for (const sim::SimTime t : probes) {
      cluster.engine().at(t, [&cluster] {
        sim::traceRecord(&cluster.trace(), cluster.engine().now(),
                         sim::TraceCategory::kApp, -1,
                         [] { return std::string("probe"); });
      });
    }
  };
  expectFlatLoopExact(sc);
}

// ---------------------------------------------------------------------------
// The checkpointable detached scenarios, captured.  An extra detached rank
// that never posts anything keeps the strobe going once the ring is done,
// so the tail is quiescent.  Its slices start at 200 us + k * 500 us.
// ---------------------------------------------------------------------------

struct CapturedRun {
  ReplayRun run;
  std::vector<std::vector<std::uint8_t>> blobs;
};

struct CapturePlan {
  int every = 1;  ///< the sink captures at every `every`-th boundary
  sim::SimTime until = msec(25);
  /// When set, run() first stops at `pause`, this runs outside the engine,
  /// and run() goes on to `until`.
  std::function<void(snapshot::Simulation&, CapturedRun&)> at_pause;
  sim::SimTime pause = 0;
};

/// Slice boundary k of the detached scenarios.
sim::SimTime detachedBoundary(int k) { return usec(200) + k * usec(500); }

/// Installs the periodic sink: it records every boundary (leaving out the
/// ticks of `ticker`, when there is one) and captures at every `every`-th
/// one.
void watchBoundaries(snapshot::Simulation& sim, CapturedRun& out, int every,
                     const Ticker* ticker) {
  sim.runtime->setSnapshotSink(
      [&sim, &out, every, ticker](std::uint64_t slice) {
        if (slice % static_cast<std::uint64_t>(every) == 0) {
          out.blobs.push_back(snapshot::capture(sim));
        }
        atBoundary(out.run, *sim.cluster, *sim.runtime, ticker);
      });
}

/// The declining run's ticker for a detached scenario run to `until`.
void tickUntil(std::optional<Ticker>& ticker, sim::Engine& engine,
               sim::SimTime until) {
  ticker.emplace(engine, [&engine, until] { return engine.now() < until; });
}

snapshot::ScenarioSpec untracedEverySlice(snapshot::ScenarioSpec spec) {
  spec.trace = false;
  spec.mpi.checkpoint_every_slices = 1;
  return spec;
}

CapturedRun captureRun(const snapshot::ScenarioSpec& spec, bool decline,
                       const CapturePlan& plan = {}) {
  snapshot::Simulation sim = snapshot::build(untracedEverySlice(spec));
  sim.runtime->registerDetachedRank(sim.runtime->createJob({0}), 0);
  CapturedRun out;
  std::optional<Ticker> ticker;
  if (decline) tickUntil(ticker, sim.cluster->engine(), plan.until);
  watchBoundaries(sim, out, plan.every, ticker ? &*ticker : nullptr);
  if (plan.at_pause) {
    sim.cluster->run(plan.pause);
    plan.at_pause(sim, out);
  }
  sim.cluster->run(plan.until);
  EXPECT_TRUE(sim.workload->allFinished());
  return out;
}

/// snapshot::restore for a blob of captureRun: the same bare build, the
/// extra rank's job, then the blob's state.
snapshot::Simulation restoreCaptured(const snapshot::ScenarioSpec& spec,
                                     const std::vector<std::uint8_t>& blob) {
  snapshot::Simulation sim;
  sim.spec = untracedEverySlice(spec);
  sim.cluster = std::make_unique<net::Cluster>(sim.spec.cluster);
  sim.runtime = std::make_unique<bcsmpi::Runtime>(*sim.cluster, sim.spec.mpi);
  sim.job = sim.runtime->createJob(sim.spec.ring.node_of_rank);
  sim.registry = std::make_unique<snapshot::BufferRegistry>();
  sim.workload = std::make_unique<snapshot::DetachedRing>(
      *sim.runtime, sim.job, sim.spec.ring, *sim.registry);
  sim.runtime->createJob({0});
  snapshot::StateIO::restoreAll(sim, snapshot::SnapshotReader(blob));
  return sim;
}

void expectBlobsMatchExceptTheEngine(const CapturedRun& a,
                                     const CapturedRun& b) {
  ASSERT_EQ(a.blobs.size(), b.blobs.size());
  for (std::size_t i = 0; i < a.blobs.size(); ++i) {
    const snapshot::SnapshotReader x(a.blobs[i]);
    const snapshot::SnapshotReader y(b.blobs[i]);
    ASSERT_EQ(x.sections().size(), y.sections().size());
    for (const snapshot::SectionInfo& info : x.sections()) {
      if (info.name == "engine") continue;
      EXPECT_EQ(x.section(info.name), y.section(info.name))
          << "section " << info.name << " of blob " << i;
    }
  }
}

void expectSnapshotsMatchExceptTheEngine(const snapshot::ScenarioSpec& spec) {
  const CapturedRun a = captureRun(spec, false);
  const CapturedRun b = captureRun(spec, true);
  expectSameBoundaries(a.run, b.run);
  EXPECT_GT(oneEventSlices(a.run), 10u);
  expectBlobsMatchExceptTheEngine(a, b);
}

TEST(SliceReplay, DetachedRingSnapshotsMatchExceptTheEngine) {
  expectSnapshotsMatchExceptTheEngine(snapshot::ckptRing());
}

TEST(SliceReplay, DetachedTreeSnapshotsMatchExceptTheEngine) {
  expectSnapshotsMatchExceptTheEngine(snapshot::ckptTree());
}

// ---------------------------------------------------------------------------
// Write-back (DESIGN.md §5b): a replayed slice's stores to the control
// arrays and endpoint free-times wait for their first reader, and the next
// replay replaces them.  Each case puts a reader right after a streak of
// replayed slices and compares with the declined run, whose stores all
// landed as its slices ran.  The ring is done by slice 26 of the detached
// scenarios and the tree by slice 31; from there on every slice replays.
// ---------------------------------------------------------------------------

using DetachedScenario = snapshot::ScenarioSpec (*)(bool);
constexpr std::array<DetachedScenario, 2> kDetached = {&snapshot::ckptRing,
                                                       &snapshot::ckptTree};

/// Slices before boundary `i` of `run` that ran at most their successor's
/// startSlice and the watchdog timer, back to the last that ran more.
std::size_t replayedBefore(const ReplayRun& run, std::size_t i) {
  std::size_t k = 0;
  while (k < i && run.events[i - k] - run.events[i - k - 1] <= 2) ++k;
  return k;
}

TEST(SliceReplay, CapturesAfterAStreakMatch) {
  // The sink captures every 5th slice, so in the tail each capture reads
  // the stores of the four replays before it, still pending.
  for (const DetachedScenario scenario : kDetached) {
    const snapshot::ScenarioSpec spec = scenario(false);
    CapturePlan plan;
    plan.every = 5;
    plan.until = msec(40);
    const CapturedRun a = captureRun(spec, false, plan);
    const CapturedRun b = captureRun(spec, true, plan);
    expectSameBoundaries(a.run, b.run);
    expectBlobsMatchExceptTheEngine(a, b);
    std::size_t after_streak = 0;
    for (std::size_t i = 0; i < a.run.boundaries.size(); ++i) {
      if (a.run.boundaries[i].slice % 5 == 0 && replayedBefore(a.run, i) >= 4) {
        ++after_streak;
      }
    }
    EXPECT_GE(after_streak, 8u) << spec.mpi.tree_fanout;
  }
}

TEST(SliceReplay, OutsideCaptureAndEventsInsideAStreakMatch) {
  // run() stops between slices 36 and 37, at least five slices into the
  // streak: a capture there, from outside the engine, reads the pending
  // stores.  It also files a capture between slices 40 and 41 and a no-op
  // 50 us into slice 44, which declines that slice's whole-slice replay,
  // so its simulated DEM reads the stores of the three replays before it.
  for (const DetachedScenario scenario : kDetached) {
    const snapshot::ScenarioSpec spec = scenario(false);
    CapturePlan plan;
    plan.every = 1000;  // no sink capture: nothing lands the stores early
    plan.until = msec(40);
    plan.pause = detachedBoundary(36) + usec(350);
    plan.at_pause = [](snapshot::Simulation& sim, CapturedRun& out) {
      out.blobs.push_back(snapshot::capture(sim));
      sim::Engine& engine = sim.cluster->engine();
      engine.at(detachedBoundary(40) + usec(350), [&sim, &out] {
        out.blobs.push_back(snapshot::capture(sim));
      });
      engine.at(detachedBoundary(44) + usec(50), [] {});
    };
    const CapturedRun a = captureRun(spec, false, plan);
    const CapturedRun b = captureRun(spec, true, plan);
    expectSameBoundaries(a.run, b.run);
    ASSERT_EQ(a.blobs.size(), 2u);
    expectBlobsMatchExceptTheEngine(a, b);
    // The premise: a streak before each reader.
    for (const int k : {36, 40, 43}) {
      std::size_t i = 0;
      while (i < a.run.boundaries.size() &&
             a.run.boundaries[i].at < detachedBoundary(k)) {
        ++i;
      }
      ASSERT_LT(i, a.run.boundaries.size());
      EXPECT_GE(replayedBefore(a.run, i), 3u)
          << "slice " << k << ", fanout " << spec.mpi.tree_fanout;
      if (k == 43) {
        ASSERT_LT(i + 2, a.run.events.size());
        EXPECT_GT(a.run.events[i + 2] - a.run.events[i + 1], 2u)
            << "slice 44, fanout " << spec.mpi.tree_fanout;
      }
    }
  }
}

TEST(SliceReplay, RestoreFromInsideAStreakContinuesIdentically) {
  // The blob of slice 45 is taken with four replays' stores pending.  Runs
  // restored from it, and from the declined run's blob of the same slice,
  // go on to the same boundaries and the same later blobs.
  for (const DetachedScenario scenario : kDetached) {
    const snapshot::ScenarioSpec spec = scenario(false);
    CapturePlan plan;
    plan.every = 5;
    plan.until = msec(40);
    const CapturedRun a = captureRun(spec, false, plan);
    const CapturedRun b = captureRun(spec, true, plan);
    constexpr std::size_t kBlob = 45 / 5 - 1;  // slices 5, 10, ..., 45
    ASSERT_GT(a.blobs.size(), kBlob);
    ASSERT_GT(b.blobs.size(), kBlob);
    std::size_t at = 0;
    while (a.run.boundaries[at].slice != 45) ++at;
    EXPECT_GE(replayedBefore(a.run, at), 4u) << spec.mpi.tree_fanout;
    std::array<CapturedRun, 2> restored;
    for (const bool decline : {false, true}) {
      CapturedRun& out = restored[decline ? 1 : 0];
      snapshot::Simulation sim = restoreCaptured(
          spec, (decline ? b : a).blobs[kBlob]);
      std::optional<Ticker> ticker;
      if (decline) tickUntil(ticker, sim.cluster->engine(), plan.until);
      watchBoundaries(sim, out, 5, ticker ? &*ticker : nullptr);
      sim.cluster->run(plan.until);
    }
    expectSameBoundaries(restored[0].run, restored[1].run);
    EXPECT_GT(restored[0].blobs.size(), 3u);
    expectBlobsMatchExceptTheEngine(restored[0], restored[1]);
    EXPECT_GT(oneEventSlices(restored[0].run), 10u);
  }
}

TEST(SliceReplay, HangAfterAStreakMatches) {
  // Node 5 hangs 30 us into slice 49, after 22 replayed slices, for 600
  // us: across the watchdog instant at slice 50's boundary, where the
  // pass finds it down and the fault path disarms it, and across the rest
  // of the declined slice, which skips it (tree) or stalls until it is
  // back (flat).
  for (const DetachedScenario scenario : kDetached) {
    snapshot::ScenarioSpec spec = scenario(false);
    spec.cluster.faults.hangNode(5, detachedBoundary(49) + usec(30),
                                 usec(600));
    CapturePlan plan;
    plan.every = 5;
    plan.until = msec(40);
    const CapturedRun a = captureRun(spec, false, plan);
    const CapturedRun b = captureRun(spec, true, plan);
    expectSameBoundaries(a.run, b.run);
    expectBlobsMatchExceptTheEngine(a, b);
    std::size_t hung = 0;
    while (a.run.boundaries[hung].slice != 49) ++hung;
    EXPECT_GE(replayedBefore(a.run, hung), 15u) << spec.mpi.tree_fanout;
    EXPECT_GT(a.run.events[hung + 1] - a.run.events[hung], 2u);
    EXPECT_GT(oneEventSlices(a.run), 30u) << spec.mpi.tree_fanout;
  }
}

TEST(SliceReplay, EvictionAndRejoinInsideAStreakMatch) {
  // Node 5 is declared dead between slices 40 and 41, four replays after
  // the watchdog pass at slice 36's boundary, and rejoins between slices
  // 50 and 51: the eviction drops the template while its stores are
  // pending, so they must land first, and the recovery and the rejoin
  // reset the node's fields after them.
  for (const DetachedScenario scenario : kDetached) {
    const snapshot::ScenarioSpec spec = scenario(false);
    CapturePlan plan;
    plan.every = 5;
    plan.until = msec(40);
    plan.pause = detachedBoundary(30);
    plan.at_pause = [](snapshot::Simulation& sim, CapturedRun&) {
      bcsmpi::Runtime* rt = sim.runtime.get();
      sim.cluster->engine().at(detachedBoundary(40) + usec(350),
                               [rt] { rt->notifyNodeFailure(5); });
      sim.cluster->engine().at(detachedBoundary(50) + usec(350),
                               [rt] { rt->notifyNodeRejoin(5); });
    };
    const CapturedRun a = captureRun(spec, false, plan);
    const CapturedRun b = captureRun(spec, true, plan);
    expectSameBoundaries(a.run, b.run);
    expectBlobsMatchExceptTheEngine(a, b);
    ASSERT_FALSE(a.run.boundaries.empty());
    EXPECT_EQ(a.run.boundaries.back().runtime.evictions, 1u);
    EXPECT_EQ(a.run.boundaries.back().runtime.rejoins, 1u);
    std::size_t i = 0;
    while (a.run.boundaries[i].slice != 40) ++i;
    EXPECT_GE(replayedBefore(a.run, i), 4u) << spec.mpi.tree_fanout;
    EXPECT_GT(oneEventSlices(a.run), 30u) << spec.mpi.tree_fanout;
  }
}

TEST(SliceReplay, TreeRackEmptiedInsideAStreakMatches) {
  // Every member of the fourth rack, nodes 24-31, is declared dead between
  // slices 34 and 35, after the ring is done.  The emptied rack's books
  // keep the last microphase it acked, below every later replay's, and a
  // replay sets only the other racks' (DESIGN.md §5b); the captures every
  // third slice read them through the streak of replays that follows.
  const snapshot::ScenarioSpec spec = snapshot::ckptTree(false);
  CapturePlan plan;
  plan.every = 3;
  plan.until = msec(40);
  plan.pause = detachedBoundary(30);
  plan.at_pause = [](snapshot::Simulation& sim, CapturedRun&) {
    bcsmpi::Runtime* rt = sim.runtime.get();
    sim.cluster->engine().at(detachedBoundary(34) + usec(350), [rt] {
      for (int n = 24; n < 32; ++n) rt->notifyNodeFailure(n);
    });
  };
  const CapturedRun a = captureRun(spec, false, plan);
  const CapturedRun b = captureRun(spec, true, plan);
  expectSameBoundaries(a.run, b.run);
  expectBlobsMatchExceptTheEngine(a, b);
  ASSERT_FALSE(a.run.boundaries.empty());
  EXPECT_EQ(a.run.boundaries.back().runtime.evictions, 8u);
  std::size_t i = 0;
  while (a.run.boundaries[i].slice != 60) ++i;
  EXPECT_GE(replayedBefore(a.run, i), 20u);
  EXPECT_GT(a.blobs.size(), 20u);
}

TEST(SliceReplay, TreeSparseJobPausedInsideAStreakMatches) {
  // run() stops between two replayed slices of the 256-node tree job; a
  // no-op filed then, 50 us into a slice eight slices on, declines its
  // whole-slice replay, so its DEM's member walks read the stores of seven
  // replays.
  ReplayScenario sc = sparseScenario(256, 1, msec(40));
  sc.mpi.tree_fanout = 16;
  sc.pause = sliceStart(30) + usec(350);
  sc.at_pause = [](net::Cluster& cluster, bcsmpi::Runtime&) {
    cluster.engine().at(sliceStart(38) + usec(50), [] {});
  };
  const ReplayRun run = expectReplayExact(sc);
  std::size_t i = 0;
  while (run.boundaries[i].at < sliceStart(38)) ++i;
  EXPECT_GE(replayedBefore(run, i), 7u);
  EXPECT_GT(run.events[i + 1] - run.events[i], 2u);
}

TEST(SliceReplay, TreeSparseJobHangAfterAStreakMatches) {
  // Member 37 (rack 2, whose Strobe Sender is node 32) hangs for 3.6 ms,
  // more than the 7 slices between watchdog instants, after a streak of
  // replayed slices: one pass finds it down and disarms it, and the
  // declined slices skip it until it is back.
  ReplayScenario sc = sparseScenario(256, 1, msec(40));
  sc.mpi.tree_fanout = 16;
  sc.cluster.faults.hangNode(37, sliceStart(40) + usec(30), usec(3600));
  const ReplayRun run = expectReplayExact(sc);
  std::size_t i = 0;
  while (run.boundaries[i].at < sliceStart(40)) ++i;
  EXPECT_GE(replayedBefore(run, i), 20u);
  EXPECT_GT(run.events[i + 1] - run.events[i], 2u);
  // Once it is back and re-armed, the streak resumes (its first check,
  // off the slice grid, declines one slice).
  std::size_t back = i;
  while (run.boundaries[back].at < sliceStart(50)) ++back;
  EXPECT_GE(replayedBefore(run, back + 20), 10u);
}

// ---------------------------------------------------------------------------
// Idle suffixes of busy slices (DESIGN.md §5b).  Each case compares the
// replayed run with the ticked one at every boundary, finish time and
// result.  To see which suffixes were replayed, a case also runs the
// scenario with a no-op 1 ns after every BBM and RM microstrobe, their
// instants taken from a traced run (tracing declines every replay and
// moves no simulated time).  Each no-op lies in the window of every replay
// of its slice, so that run simulates every slice, and it disturbs nothing
// else: the flat loop counts the same poll rounds as it does as is.  A
// slice's events in it then exceed the replayed run's by what the replay
// saved plus the two no-ops.
// ---------------------------------------------------------------------------

/// `sc` with a no-op 1 ns after each BBM and RM microstrobe of `sc` traced.
ReplayScenario tailsDeclined(ReplayScenario sc) {
  const std::vector<sim::SimTime> strobes =
      runFlatLoop(sc, /*tick=*/false).tail_strobes;
  sc.extra = [extra = sc.extra, strobes](net::Cluster& cluster,
                                         bcsmpi::Runtime& rt) {
    if (extra) extra(cluster, rt);
    for (const sim::SimTime t : strobes) cluster.engine().at(t + 1, [] {});
  };
  return sc;
}

/// The no-ops a slice of the tails-declined run holds.
constexpr std::uint64_t kTailNoops = 2;

/// Per slice (boundary i − 1 to i), the engine events `declined` ran
/// beyond `replayed`, after checking that both runs agree.
std::vector<std::int64_t> savedEvents(const ReplayRun& replayed,
                                      const ReplayRun& declined) {
  expectSameBoundaries(replayed, declined);
  EXPECT_EQ(replayed.finish, declined.finish);
  EXPECT_EQ(replayed.results, declined.results);
  std::vector<std::int64_t> saved(replayed.events.size(), 0);
  for (std::size_t i = 1; i < saved.size() && i < declined.events.size();
       ++i) {
    saved[i] = static_cast<std::int64_t>(declined.events[i] -
                                         declined.events[i - 1]) -
               static_cast<std::int64_t>(replayed.events[i] -
                                         replayed.events[i - 1]);
  }
  return saved;
}

/// The slice from boundary i − 1 to i moved a chunk: its P2P was busy.
bool movedChunks(const ReplayRun& run, std::size_t i) {
  return run.boundaries[i].runtime.chunks_transferred !=
         run.boundaries[i - 1].runtime.chunks_transferred;
}

TEST(TailReplay, BlockingWavefrontSkipsTheIdleBbmAndRm) {
  // Every busy slice moves boundary blocks through its DEM, MSM and P2P
  // and has nothing for its BBM and RM.  The first records their template;
  // each later one replays it instead of running their six engine events:
  // the strobe's legs, the NIC timer range and the poll, twice.
  const ReplayScenario sc = blockingWavefront();
  const ReplayRun run = expectReplayExact(sc);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  std::size_t busy = 0;
  for (std::size_t i = 1; i < saved.size(); ++i) {
    if (!movedChunks(run, i)) continue;
    if (++busy == 1) {
      EXPECT_EQ(saved[i], static_cast<std::int64_t>(kTailNoops))
          << "the first busy slice, at boundary " << i;
      continue;
    }
    EXPECT_EQ(saved[i], static_cast<std::int64_t>(6 + kTailNoops))
        << "busy slice at boundary " << i;
  }
  EXPECT_GT(busy, 200u);
}

TEST(TailReplay, CollectivesInFlightMatch) {
  // A broadcast keeps the BBM busy and an allreduce the RM: a slice that
  // runs one replays no suffix from the BBM, at most the RM alone.
  ReplayScenario sc;
  sc.cluster = nodes(8);
  sc.map = blockMap(8, 1);
  sc.body = [](Comm& comm) {
    std::uint64_t sum = 0;
    for (int i = 0; i < 4; ++i) {
      comm.compute(usec(900) + usec(170) * comm.rank());
      int word = comm.rank() == 2 ? 40 + i : 0;
      comm.bcast(&word, sizeof word, 2);
      double v = comm.rank() + i;
      double total = 0;
      comm.allreduce(&v, &total, 1, mpi::Datatype::kFloat64,
                     mpi::ReduceOp::kSum);
      std::array<std::uint8_t, 64> out{};
      std::array<std::uint8_t, 64> in{};
      out.fill(static_cast<std::uint8_t>(word));
      const int p = comm.size();
      const int me = comm.rank();
      std::array<mpi::Request, 2> reqs = {
          comm.irecv(in.data(), in.size(), (me + p - 1) % p, i),
          comm.isend(out.data(), out.size(), (me + 1) % p, i)};
      comm.waitall(reqs);
      sum += static_cast<std::uint64_t>(total) * 100 + in[0];
    }
    return sum;
  };
  const ReplayRun run = expectReplayExact(sc);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  std::size_t collective_slices = 0;
  std::size_t bbm_tails = 0;
  for (std::size_t i = 1; i < saved.size(); ++i) {
    const bool collective =
        run.boundaries[i].runtime.collectives_scheduled !=
        run.boundaries[i - 1].runtime.collectives_scheduled;
    if (collective) {
      ++collective_slices;
      EXPECT_LT(saved[i], static_cast<std::int64_t>(6 + kTailNoops))
          << "a slice running a collective, at boundary " << i;
    } else if (movedChunks(run, i) &&
               saved[i] == static_cast<std::int64_t>(6 + kTailNoops)) {
      ++bbm_tails;
    }
  }
  EXPECT_GE(collective_slices, 8u);
  EXPECT_GT(bbm_tails, 0u);
}

/// Ranks 0 to ring − 1 exchange 64 bytes with both ring neighbours among
/// them, `rounds` times, blocking, and do nothing else but compute `think`
/// after each round: every slice is busy in its DEM, MSM and P2P and idle
/// in its BBM and RM.
std::uint64_t busyRing(Comm& comm, int rounds, int ring,
                       sim::Duration think = 0) {
  const int me = comm.rank();
  std::uint64_t sum = 0;
  std::array<std::uint8_t, 64> out{};
  std::array<std::uint8_t, 64> left{};
  std::array<std::uint8_t, 64> right{};
  for (int round = 0; round < rounds; ++round) {
    out.fill(static_cast<std::uint8_t>(me * 3 + round));
    std::array<mpi::Request, 4> reqs = {
        comm.irecv(left.data(), left.size(), (me + ring - 1) % ring, 0),
        comm.irecv(right.data(), right.size(), (me + 1) % ring, 1),
        comm.isend(out.data(), out.size(), (me + 1) % ring, 0),
        comm.isend(out.data(), out.size(), (me + ring - 1) % ring, 1)};
    comm.waitall(reqs);
    sum += left[0] + right[0];
    if (think > 0) comm.compute(think);
  }
  return sum;
}

ReplayScenario busyRingScenario(int node_count, int rounds) {
  ReplayScenario sc;
  sc.cluster = nodes(node_count);
  sc.map = blockMap(node_count, 1);
  sc.body = [rounds, node_count](Comm& comm) {
    return busyRing(comm, rounds, node_count);
  };
  return sc;
}

TEST(TailReplay, OverrunsAreDerivedPerSlice) {
  // The ring alternates 64-byte and 8 KB messages.  A slice of the first
  // kind strobes its BBM 163.5 us after it starts and completes its RM at
  // 174.5 us; one of the second kind at 184.5 and 195.5 us.  With 190 us
  // slices the second kind overruns, and its boundary falls inside its
  // tail's window: a replay counts the overrun and files the next slice
  // from its own slice's start and RM completion, as phaseComplete does,
  // whichever kind of slice recorded the template.
  ReplayScenario sc = busyRingScenario(16, 40);
  sc.mpi.time_slice = usec(190);
  sc.body = [](Comm& comm) -> std::uint64_t {
    const int p = comm.size();
    const int me = comm.rank();
    std::vector<std::uint8_t> out(8192, static_cast<std::uint8_t>(me));
    std::vector<std::uint8_t> in(8192);
    std::uint64_t sum = 0;
    for (int round = 0; round < 40; ++round) {
      const std::size_t bytes = round % 2 == 0 ? 64 : 8192;
      std::array<mpi::Request, 2> reqs = {
          comm.irecv(in.data(), bytes, (me + p - 1) % p, round),
          comm.isend(out.data(), bytes, (me + 1) % p, round)};
      comm.waitall(reqs);
      sum += in[bytes - 1];
    }
    return sum;
  };
  const ReplayRun run = expectReplayExact(sc);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  std::array<std::size_t, 2> replayed{};  // [overran]
  for (std::size_t i = 1; i < saved.size(); ++i) {
    if (saved[i] != static_cast<std::int64_t>(6 + kTailNoops)) continue;
    const bool overran = run.boundaries[i].runtime.slice_overruns !=
                         run.boundaries[i - 1].runtime.slice_overruns;
    ++replayed[overran ? 1 : 0];
  }
  EXPECT_GT(replayed[0], 10u);
  EXPECT_GT(replayed[1], 10u);
}

/// The instant of the BBM microstrobe of slice k of `sc` (slice 1 is the
/// first), from a traced run.
sim::SimTime bbmStrobe(const ReplayScenario& sc, std::size_t k) {
  const LoopRun traced = runFlatLoop(sc, /*tick=*/false);
  EXPECT_LT(2 * (k - 1), traced.tail_strobes.size());
  return traced.tail_strobes[2 * (k - 1)];
}

/// The boundary index i whose slice (from boundary i − 1) holds `t`.
std::size_t sliceHolding(const ReplayRun& run, sim::SimTime t) {
  std::size_t i = 1;
  while (i < run.boundaries.size() && run.boundaries[i].at <= t) ++i;
  return i;
}

TEST(TailReplay, ComputeEndingInsideATailWindowDeclines) {
  // Rank 16, beside the ring, computes until 5 us after slice 20's BBM
  // strobe: that slice's tail declines, the ones around it replay.
  constexpr int kRing = 16;
  ReplayScenario sc = busyRingScenario(kRing, 40);
  const sim::SimTime end = bbmStrobe(sc, 20) + usec(5);
  sc.map.push_back(3);
  sc.body = [end](Comm& comm) -> std::uint64_t {
    if (comm.rank() == kRing) {
      computeUntil(comm, end);
      return 1;
    }
    return busyRing(comm, 40, kRing);
  };
  const ReplayRun run = expectReplayExact(sc);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  const std::size_t k = sliceHolding(run, end);
  ASSERT_LT(k + 1, saved.size());
  EXPECT_EQ(saved[k], static_cast<std::int64_t>(kTailNoops));
  EXPECT_EQ(saved[k - 1], static_cast<std::int64_t>(6 + kTailNoops));
  EXPECT_EQ(saved[k + 1], static_cast<std::int64_t>(6 + kTailNoops));
}

TEST(TailReplay, StrobeSenderCrashAndHangInsideATailWindowMatch) {
  // The management node dies, or node 5 hangs for 20 us, 3 us after slice
  // 12's BBM strobe: the fault lies inside the tail's window, which
  // declines.  After the crash compute node 0 takes over.
  const ReplayScenario ring = busyRingScenario(16, 60);
  const sim::SimTime fault = bbmStrobe(ring, 12) + usec(3);
  for (const bool crash : {true, false}) {
    ReplayScenario sc = ring;
    if (crash) {
      sc.cluster.faults.crashManagementNode(fault);
    } else {
      sc.cluster.faults.hangNode(5, fault, usec(20));
    }
    sc.until = msec(80);
    const ReplayRun run = expectReplayExact(sc);
    const std::vector<std::int64_t> saved =
        savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
    const std::size_t k = sliceHolding(run, fault);
    ASSERT_LT(k, saved.size());
    ASSERT_GT(k, 2u);
    EXPECT_EQ(saved[k - 1], static_cast<std::int64_t>(6 + kTailNoops))
        << crash;
    EXPECT_LT(saved[k], static_cast<std::int64_t>(6 + kTailNoops)) << crash;
    EXPECT_EQ(run.boundaries.back().runtime.elections, crash ? 1u : 0u);
    // Tails replay again once the fault is over; under the backup Strobe
    // Sender, a compute node, they also skip its strobes to itself.
    std::size_t after = 0;
    for (std::size_t i = k + 1; i < saved.size(); ++i) {
      after += saved[i] > static_cast<std::int64_t>(kTailNoops) ? 1 : 0;
    }
    EXPECT_GT(after, 20u) << crash;
  }
}

TEST(TailReplay, EvictionAndRejoinBetweenTailReplaysMatch) {
  // Nodes 0-14 run the ring; node 15's rank only computes.  Node 15 is
  // declared dead between slices 10 and 11 and rejoins between slices 30
  // and 31.  Each drops the templates, and later busy slices record new
  // ones for the live set of the moment.
  constexpr int kRing = 15;
  ReplayScenario sc = busyRingScenario(16, 50);
  sc.body = [](Comm& comm) -> std::uint64_t {
    if (comm.rank() == kRing) {
      comm.compute(msec(20));
      return 1;
    }
    return busyRing(comm, 50, kRing);
  };
  sc.extra = [](net::Cluster& cluster, bcsmpi::Runtime& rt) {
    cluster.engine().at(sliceStart(10) + usec(350),
                        [&rt] { rt.notifyNodeFailure(kRing); });
    cluster.engine().at(sliceStart(30) + usec(350),
                        [&rt] { rt.notifyNodeRejoin(kRing); });
  };
  const ReplayRun run = expectReplayExact(sc);
  ASSERT_FALSE(run.boundaries.empty());
  EXPECT_EQ(run.boundaries.back().runtime.evictions, 1u);
  EXPECT_EQ(run.boundaries.back().runtime.rejoins, 1u);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  const std::size_t evicted = sliceHolding(run, sliceStart(10) + usec(350));
  const std::size_t rejoined = sliceHolding(run, sliceStart(30) + usec(350));
  std::array<std::size_t, 3> replayed{};  // before, between, after
  for (std::size_t i = 1; i < saved.size(); ++i) {
    if (saved[i] != static_cast<std::int64_t>(6 + kTailNoops)) continue;
    ++replayed[i <= evicted ? 0 : i <= rejoined ? 1 : 2];
  }
  EXPECT_GT(replayed[0], 5u);
  EXPECT_GT(replayed[1], 10u);
  EXPECT_GT(replayed[2], 10u);
}

TEST(TailReplay, TreeEvictionThatCompletesAMicrophaseRecordsNothing) {
  // Nodes 0-15, rack 0 under fanout 16, run the ring; node 16, alone in
  // rack 1, only computes.  The ring ranks compute 50 us after each round,
  // past the tail window of a tree this small.  Node 16 hangs at the P2P
  // strobe of the tenth slice, so that microphase waits for rack 1's ack
  // until node 16 is declared dead 100 us later: the emptied rack stops
  // gating it, and notifyNodeFailure itself completes the P2P and strobes
  // the BBM.  Its caller then moves one message inside that BBM's window.
  // A template recorded from that strobe would hold the message and add
  // it to every tail replayed later, so the pending eviction declines the
  // recording.
  constexpr int kRing = 16;
  ReplayScenario sc = busyRingScenario(17, 40);
  sc.mpi.tree_fanout = 16;
  sc.body = [](Comm& comm) -> std::uint64_t {
    if (comm.rank() == kRing) {
      comm.compute(msec(20));
      return 1;
    }
    return busyRing(comm, 40, kRing, usec(50));
  };
  const std::vector<sim::SimTime> p2p =
      runFlatLoop(sc, /*tick=*/false).p2p_strobes;
  ASSERT_GT(p2p.size(), 20u);
  const sim::SimTime hang = p2p[10];
  sc.cluster.faults.hangNode(kRing, hang, usec(500));
  sc.extra = [hang](net::Cluster& cluster, bcsmpi::Runtime& rt) {
    cluster.engine().at(hang + usec(100), [&cluster, &rt] {
      rt.notifyNodeFailure(kRing);
      cluster.engine().after(1, [&cluster] {
        cluster.fabric().unicast(0, 1, 64, [] {});
      });
    });
  };
  const ReplayRun run = expectReplayExact(sc);
  ASSERT_FALSE(run.boundaries.empty());
  EXPECT_EQ(run.boundaries.back().runtime.evictions, 1u);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  std::array<std::size_t, 2> replayed{};  // before, after the eviction
  const std::size_t evicted = sliceHolding(run, hang);
  for (std::size_t i = 1; i < saved.size(); ++i) {
    if (saved[i] > static_cast<std::int64_t>(kTailNoops)) {
      ++replayed[i <= evicted ? 0 : 1];
    }
  }
  EXPECT_GT(replayed[0], 5u);
  EXPECT_GT(replayed[1], 10u);
}

TEST(TailReplay, RunBoundAndObserverInsideATailSeeItUnderWay) {
  // run() stops 3 us after slice 15's BBM strobe, and an engine event runs
  // 3 us after slice 25's: both see the BBM strobe out and the RM's not,
  // in the replayed run as in the ticked one.
  ReplayScenario sc = busyRingScenario(16, 40);
  const LoopRun traced = runFlatLoop(sc, /*tick=*/false);
  ASSERT_GT(traced.tail_strobes.size(), 2 * 25u);
  const sim::SimTime bound = traced.tail_strobes[2 * 14] + usec(3);
  const sim::SimTime look = traced.tail_strobes[2 * 24] + usec(3);
  const auto under_way = [](const bcsmpi::Runtime& rt) {
    const bcsmpi::RuntimeStats& st = rt.stats();
    return st.microstrobes == 5 * (st.slices - 1) + 4;
  };
  auto seen = std::make_shared<std::vector<bool>>();
  sc.pause = bound;
  sc.at_pause = [under_way, seen, look](net::Cluster& cluster,
                                        bcsmpi::Runtime& rt) {
    seen->push_back(under_way(rt));
    cluster.engine().at(look, [&rt, under_way, seen] {
      seen->push_back(under_way(rt));
    });
  };
  const ReplayRun run = expectReplayExact(sc);
  EXPECT_EQ(*seen, std::vector<bool>(4, true));
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  for (const sim::SimTime t : {bound, look}) {
    const std::size_t k = sliceHolding(run, t);
    ASSERT_LT(k + 1, saved.size());
    EXPECT_LT(saved[k], static_cast<std::int64_t>(6 + kTailNoops));
    EXPECT_EQ(saved[k + 1], static_cast<std::int64_t>(6 + kTailNoops));
  }
}

TEST(TailReplay, CapturesEverySliceMatchExceptTheEngine) {
  // The detached ring's busy slices replay their idle tails, and the sink
  // captures at every boundary, right after each replay: its control
  // stores are still pending when the capture reads them.
  const snapshot::ScenarioSpec spec = snapshot::ckptRing(false);
  const CapturedRun a = captureRun(spec, false);
  const CapturedRun b = captureRun(spec, true);
  expectSameBoundaries(a.run, b.run);
  expectBlobsMatchExceptTheEngine(a, b);
  // The premise, as the ticked run can show it: busy slices (those that
  // exchanged descriptors) ran their BBM and RM in the ticked run only.
  std::size_t busy = 0;
  for (std::size_t i = 1; i < a.run.boundaries.size(); ++i) {
    if (a.run.boundaries[i].runtime.descriptors_exchanged ==
        a.run.boundaries[i - 1].runtime.descriptors_exchanged) {
      continue;
    }
    ++busy;
    EXPECT_LE(a.run.events[i] - a.run.events[i - 1] + 6,
              b.run.events[i] - b.run.events[i - 1])
        << "boundary " << i;
  }
  EXPECT_GT(busy, 10u);
}

TEST(TailReplay, TreeWithTrafficInEverySliceMatches) {
  // 256 nodes under fanout 16, every rank in the ring in every slice: the
  // idle BBM and RM replay the root's strobes, the racks' relays and their
  // coalesced acks.
  ReplayScenario sc = busyRingScenario(256, 20);
  sc.mpi.tree_fanout = 16;
  const ReplayRun run = expectReplayExact(sc);
  const std::vector<std::int64_t> saved =
      savedEvents(run, runReplayScenario(tailsDeclined(sc), false));
  std::size_t replayed = 0;
  for (std::size_t i = 1; i < saved.size(); ++i) {
    if (movedChunks(run, i) &&
        saved[i] > static_cast<std::int64_t>(6 + kTailNoops)) {
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 15u);
}

}  // namespace
