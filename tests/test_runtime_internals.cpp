// White-box tests of the BCS-MPI runtime: statistics accounting, slice-grid
// behaviour, error reporting, the spin-vs-descheduled wait distinction, the
// DEM drain window, multi-job isolation, and the exactness of quiescent-slice
// replay and of the flat Strobe Sender loop's skipped poll rounds.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
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
// Quiescent-slice replay is exact (DESIGN.md §5b).  Each scenario runs
// twice: as is, and with a no-op engine event 1 ns into every slice, which
// makes the replay decline and so simulates every slice normally.  The
// periodic snapshot sink is the per-boundary hook of both runs.
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
};

/// Records one slice boundary; in the declining run, also files the no-op
/// event 1 ns into the slice.
void atBoundary(ReplayRun& out, net::Cluster& cluster,
                const bcsmpi::Runtime& rt, bool decline) {
  sim::Engine& engine = cluster.engine();
  out.boundaries.push_back(Boundary{rt.sliceIndex(), engine.now(), rt.stats(),
                                    cluster.fabric().stats()});
  out.events.push_back(engine.executedEvents());
  if (decline) engine.after(1, [] {});
}

ReplayRun runReplayScenario(const ReplayScenario& sc, bool decline) {
  net::Cluster cluster(sc.cluster);
  BcsMpiConfig cfg = sc.mpi;
  cfg.checkpoint_every_slices = 1;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  ReplayRun out;
  out.results.assign(sc.map.size(), 0);
  runtime->setSnapshotSink(
      [&out, &cluster, rt = runtime.get(), decline](std::uint64_t) {
        atBoundary(out, cluster, *rt, decline);
      });
  bcsmpi::launchJob(
      *runtime, sc.map,
      [&out, &sc](Comm& comm) {
        out.results[static_cast<std::size_t>(comm.rank())] = sc.body(comm);
      },
      &out.finish);
  if (sc.extra) sc.extra(cluster, *runtime);
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
  runtime->setSnapshotSink([&out, &cluster, rt = runtime.get()](std::uint64_t) {
    atBoundary(out.run, cluster, *rt, /*decline=*/false);
  });
  bcsmpi::launchJob(
      *runtime, sc.map,
      [&out, &sc](Comm& comm) {
        out.run.results[static_cast<std::size_t>(comm.rank())] = sc.body(comm);
      },
      &out.run.finish);
  if (sc.extra) sc.extra(cluster, *runtime);
  std::uint64_t ticks = 0;
  std::function<void()> next_tick = [&] {
    ++ticks;
    if (!cluster.allProcessesFinished()) {
      cluster.engine().after(usec(1), next_tick);
    }
  };
  if (tick) cluster.engine().at(0, next_tick);
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
  }
  out.events = cluster.engine().executedEvents() - ticks;
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

TEST(FlatLoop, BlockingWavefrontMatchesEveryRoundRun) {
  // SWEEP3D's shape at 62 ranks, two per node, cut down to one time step
  // of two sweeps.
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
  expectFlatLoopExact(sc);
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

/// Runs a checkpointable scenario untraced to `until` with a snapshot at
/// every boundary.  An extra detached rank that never posts anything keeps
/// the strobe going once the ring is done, so the tail is quiescent.
struct CapturedRun {
  ReplayRun run;
  std::vector<std::vector<std::uint8_t>> blobs;
};

CapturedRun captureEverySlice(snapshot::ScenarioSpec spec, bool decline,
                              sim::SimTime until) {
  spec.trace = false;
  spec.mpi.checkpoint_every_slices = 1;
  snapshot::Simulation sim = snapshot::build(spec);
  sim.runtime->registerDetachedRank(sim.runtime->createJob({0}), 0);
  CapturedRun out;
  sim.runtime->setSnapshotSink([&](std::uint64_t) {
    out.blobs.push_back(snapshot::capture(sim));
    atBoundary(out.run, *sim.cluster, *sim.runtime, decline);
  });
  sim.cluster->run(until);
  EXPECT_TRUE(sim.workload->allFinished());
  return out;
}

void expectSnapshotsMatchExceptTheEngine(const snapshot::ScenarioSpec& spec) {
  const CapturedRun a = captureEverySlice(spec, false, msec(25));
  const CapturedRun b = captureEverySlice(spec, true, msec(25));
  expectSameBoundaries(a.run, b.run);
  EXPECT_GT(oneEventSlices(a.run), 10u);
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

TEST(SliceReplay, DetachedRingSnapshotsMatchExceptTheEngine) {
  expectSnapshotsMatchExceptTheEngine(snapshot::ckptRing());
}

TEST(SliceReplay, DetachedTreeSnapshotsMatchExceptTheEngine) {
  expectSnapshotsMatchExceptTheEngine(snapshot::ckptTree());
}

}  // namespace
