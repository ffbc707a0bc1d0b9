// Integration tests for the Quadrics-MPI-style baseline implementation:
// point-to-point correctness (eager + rendezvous), matching semantics,
// non-blocking ops, and collectives.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/baseline.hpp"
#include "mpi/comm.hpp"
#include "net/cluster.hpp"

namespace {

using namespace bcs;
using baseline::BaselineConfig;
using baseline::blockMapping;
using baseline::runJob;
using mpi::Comm;
using sim::msec;
using sim::usec;

net::ClusterConfig smallCluster(int nodes = 8) {
  net::ClusterConfig cfg;
  cfg.num_compute_nodes = nodes;
  return cfg;
}

BaselineConfig fastInit() {
  BaselineConfig cfg;
  cfg.init_overhead = usec(10);  // keep unit tests snappy
  return cfg;
}

TEST(Baseline, PingPongDeliversPayload) {
  net::Cluster cluster(smallCluster());
  std::vector<int> received;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    std::vector<int> buf(256);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 100);
      comm.sendv<int>(buf, 1, /*tag=*/7);
    } else {
      comm.recvv<int>(buf, 0, 7);
      received = buf;
    }
  });
  ASSERT_EQ(received.size(), 256u);
  EXPECT_EQ(received[0], 100);
  EXPECT_EQ(received[255], 355);
}

TEST(Baseline, LargeMessageUsesRendezvousAndArrivesIntact) {
  net::Cluster cluster(smallCluster());
  const std::size_t n = 1 << 18;  // 1 MiB of ints: rendezvous path
  bool ok = false;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    std::vector<int> buf(n);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<int>(i * 3);
      comm.sendv<int>(buf, 1, 0);
    } else {
      comm.recvv<int>(buf, 0, 0);
      ok = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (buf[i] != static_cast<int>(i * 3)) {
          ok = false;
          break;
        }
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Baseline, UnexpectedMessagesBufferUntilReceivePosted) {
  net::Cluster cluster(smallCluster());
  int got = 0;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 41;
      comm.send(&v, sizeof v, 1, 5);
    } else {
      comm.compute(msec(5));  // message arrives long before the recv
      int v = 0;
      comm.recv(&v, sizeof v, 0, 5);
      got = v + 1;
    }
  });
  EXPECT_EQ(got, 42);
}

TEST(Baseline, TagAndSourceSelectivity) {
  net::Cluster cluster(smallCluster());
  std::vector<int> order;
  runJob(cluster, fastInit(), blockMapping(3, 8, 1), [&](Comm& comm) {
    if (comm.rank() == 1) {
      const int v = 111;
      comm.compute(usec(300));
      comm.send(&v, sizeof v, 0, /*tag=*/1);
    } else if (comm.rank() == 2) {
      const int v = 222;
      comm.send(&v, sizeof v, 0, /*tag=*/2);
    } else {
      int a = 0, b = 0;
      // Tag 1 from rank 1 first even though rank 2's message arrives first.
      comm.recv(&a, sizeof a, 1, 1);
      order.push_back(a);
      comm.recv(&b, sizeof b, 2, 2);
      order.push_back(b);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{111, 222}));
}

TEST(Baseline, WildcardReceiveMatchesArrivalOrder) {
  net::Cluster cluster(smallCluster());
  std::vector<int> got;
  runJob(cluster, fastInit(), blockMapping(3, 8, 1), [&](Comm& comm) {
    if (comm.rank() > 0) {
      const int v = comm.rank() * 10;
      if (comm.rank() == 2) comm.compute(usec(500));
      comm.send(&v, sizeof v, 0, 3);
    } else {
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        mpi::Status st;
        comm.recv(&v, sizeof v, mpi::kAnySource, mpi::kAnyTag, &st);
        got.push_back(v);
        EXPECT_EQ(st.tag, 3);
        EXPECT_EQ(st.bytes, sizeof v);
        EXPECT_EQ(st.source * 10, v);
      }
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 10);  // rank 1's message arrived first
  EXPECT_EQ(got[1], 20);
}

TEST(Baseline, NonOvertakingBetweenSamePair) {
  net::Cluster cluster(smallCluster());
  std::vector<int> got;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        comm.send(&i, sizeof i, 1, /*tag=*/0);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        comm.recv(&v, sizeof v, 0, 0);
        got.push_back(v);
      }
    }
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Baseline, IsendIrecvWaitallOverlap) {
  net::Cluster cluster(smallCluster());
  sim::SimTime elapsed = 0;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    const std::size_t n = 1024;
    std::vector<double> out(n, comm.rank() + 0.5), in(n);
    const int peer = 1 - comm.rank();
    const sim::SimTime t0 = comm.now();
    std::vector<mpi::Request> reqs;
    reqs.push_back(comm.irecvv<double>(in, peer, 0));
    reqs.push_back(comm.isendv<double>(std::span<const double>(out), peer, 0));
    comm.compute(msec(2));
    comm.waitall(reqs);
    if (comm.rank() == 0) {
      elapsed = comm.now() - t0;
      EXPECT_DOUBLE_EQ(in[0], 1.5);
    }
  });
  // Communication (~tens of us) hides inside the 2 ms compute.
  EXPECT_LT(elapsed, msec(2) + usec(200));
}

TEST(Baseline, TestReturnsFalseThenTrue) {
  net::Cluster cluster(smallCluster());
  bool early_test = true;
  bool late_test = false;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(msec(1));
      const int v = 9;
      comm.send(&v, sizeof v, 1, 0);
    } else {
      int v = 0;
      mpi::Request r = comm.irecv(&v, sizeof v, 0, 0);
      early_test = comm.test(r);
      while (!comm.test(r)) comm.compute(usec(100));
      late_test = true;
      EXPECT_EQ(v, 9);
    }
  });
  EXPECT_FALSE(early_test);
  EXPECT_TRUE(late_test);
}

TEST(Baseline, ProbeSeesPendingMessage) {
  net::Cluster cluster(smallCluster());
  std::size_t probed_bytes = 0;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(777);
      comm.send(payload.data(), payload.size(), 1, 4);
    } else {
      mpi::Status st;
      EXPECT_TRUE(comm.probe(0, 4, &st, /*blocking=*/true));
      probed_bytes = st.bytes;
      std::vector<char> buf(st.bytes);
      comm.recv(buf.data(), buf.size(), st.source, st.tag);
    }
  });
  EXPECT_EQ(probed_bytes, 777u);
}

TEST(Baseline, BarrierSynchronizesRanks) {
  net::Cluster cluster(smallCluster());
  std::vector<sim::SimTime> after(4);
  runJob(cluster, fastInit(), blockMapping(4, 8, 1), [&](Comm& comm) {
    comm.compute(msec(comm.rank()));  // staggered arrivals
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  // Everyone leaves at (essentially) the same time, after the slowest.
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], msec(3));
    EXPECT_NEAR(static_cast<double>(after[static_cast<std::size_t>(r)]),
                static_cast<double>(after[0]), usec(50));
  }
}

TEST(Baseline, BcastDeliversFromNonZeroRoot) {
  net::Cluster cluster(smallCluster());
  std::vector<std::vector<int>> results(6);
  runJob(cluster, fastInit(), blockMapping(6, 8, 1), [&](Comm& comm) {
    std::vector<int> data(100);
    if (comm.rank() == 2) {
      std::iota(data.begin(), data.end(), 7);
    }
    comm.bcast(data.data(), data.size() * sizeof(int), /*root=*/2);
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), 100u);
    EXPECT_EQ(r[0], 7);
    EXPECT_EQ(r[99], 106);
  }
}

TEST(Baseline, ReduceSumToRoot) {
  net::Cluster cluster(smallCluster());
  std::vector<double> root_result;
  runJob(cluster, fastInit(), blockMapping(8, 8, 1), [&](Comm& comm) {
    std::vector<double> contrib(16, comm.rank() + 1.0);
    std::vector<double> result(16, -1.0);
    comm.reduce(contrib.data(), result.data(), 16, mpi::Datatype::kFloat64,
                mpi::ReduceOp::kSum, /*root=*/3);
    if (comm.rank() == 3) root_result = result;
  });
  ASSERT_EQ(root_result.size(), 16u);
  for (double v : root_result) EXPECT_DOUBLE_EQ(v, 36.0);  // 1+2+...+8
}

TEST(Baseline, AllreduceMinMax) {
  net::Cluster cluster(smallCluster());
  std::vector<std::int64_t> mins(5), maxs(5);
  runJob(cluster, fastInit(), blockMapping(5, 8, 1), [&](Comm& comm) {
    const auto r = static_cast<std::int64_t>(comm.rank());
    mins[static_cast<std::size_t>(r)] =
        comm.allreduceOne(r * 10 - 7, mpi::ReduceOp::kMin);
    maxs[static_cast<std::size_t>(r)] =
        comm.allreduceOne(r * 10 - 7, mpi::ReduceOp::kMax);
  });
  for (auto v : mins) EXPECT_EQ(v, -7);
  for (auto v : maxs) EXPECT_EQ(v, 33);
}

TEST(Baseline, ComposedCollectivesScatterGatherAlltoall) {
  net::Cluster cluster(smallCluster());
  const int P = 4;
  std::vector<bool> ok(static_cast<std::size_t>(P), false);
  runJob(cluster, fastInit(), blockMapping(P, 8, 1), [&](Comm& comm) {
    const int r = comm.rank();
    // scatter
    std::vector<int> scatter_src(static_cast<std::size_t>(P));
    std::iota(scatter_src.begin(), scatter_src.end(), 0);
    int mine = -1;
    comm.scatter(scatter_src.data(), sizeof(int), &mine, /*root=*/0);
    bool good = (mine == r);
    // gather
    const int contrib = r * r;
    std::vector<int> gathered(static_cast<std::size_t>(P), -1);
    comm.gather(&contrib, sizeof(int), gathered.data(), /*root=*/1);
    if (r == 1) {
      for (int i = 0; i < P; ++i) {
        good = good && gathered[static_cast<std::size_t>(i)] == i * i;
      }
    }
    // allgather
    std::vector<int> all(static_cast<std::size_t>(P), -1);
    comm.allgather(&contrib, sizeof(int), all.data());
    for (int i = 0; i < P; ++i) {
      good = good && all[static_cast<std::size_t>(i)] == i * i;
    }
    // alltoall: rank r sends value 100*r + d to destination d.
    std::vector<int> send(static_cast<std::size_t>(P)), recv(
        static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)] = 100 * r + d;
    comm.alltoall(send.data(), sizeof(int), recv.data());
    for (int s = 0; s < P; ++s) {
      good = good && recv[static_cast<std::size_t>(s)] == 100 * s + r;
    }
    ok[static_cast<std::size_t>(r)] = good;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST(Baseline, TwoRanksPerNodeWork) {
  net::Cluster cluster(smallCluster(4));
  std::vector<int> sums(8, 0);
  runJob(cluster, fastInit(), blockMapping(8, 4, 2), [&](Comm& comm) {
    sums[static_cast<std::size_t>(comm.rank())] = static_cast<int>(
        comm.allreduceOne(static_cast<std::int64_t>(comm.rank()),
                          mpi::ReduceOp::kSum));
  });
  for (int s : sums) EXPECT_EQ(s, 28);
}

TEST(Baseline, SmallMessageLatencyIsAFewMicroseconds) {
  net::Cluster cluster(smallCluster());
  sim::SimTime rtt = 0;
  BaselineConfig cfg = fastInit();
  runJob(cluster, cfg, blockMapping(2, 8, 1), [&](Comm& comm) {
    char c = 'x';
    if (comm.rank() == 0) {
      const sim::SimTime t0 = comm.now();
      comm.send(&c, 1, 1, 0);
      comm.recv(&c, 1, 1, 0);
      rtt = comm.now() - t0;
    } else {
      comm.recv(&c, 1, 0, 0);
      comm.send(&c, 1, 0, 0);
    }
  });
  // Production-MPI-era half round trip on QsNet is ~4-6 us.
  EXPECT_GT(rtt / 2, usec(2));
  EXPECT_LT(rtt / 2, usec(15));
}

TEST(Baseline, BandwidthApproachesLinkRate) {
  net::Cluster cluster(smallCluster());
  double mbps = 0;
  runJob(cluster, fastInit(), blockMapping(2, 8, 1), [&](Comm& comm) {
    const std::size_t bytes = 8 << 20;
    std::vector<char> buf(bytes, 1);
    if (comm.rank() == 0) {
      const sim::SimTime t0 = comm.now();
      comm.send(buf.data(), bytes, 1, 0);
      char ack;
      comm.recv(&ack, 1, 1, 0);
      mbps = static_cast<double>(bytes) / sim::toSec(comm.now() - t0) / 1e6;
    } else {
      comm.recv(buf.data(), bytes, 0, 0);
      const char ack = 1;
      comm.send(&ack, 1, 0, 0);
    }
  });
  EXPECT_GT(mbps, 250.0);  // QsNet link is 340 MB/s
  EXPECT_LT(mbps, 345.0);
}

TEST(Baseline, TruncatingReceiveThrows) {
  net::Cluster cluster(smallCluster());
  EXPECT_THROW(
      runJob(cluster, fastInit(), blockMapping(2, 8, 1),
             [&](Comm& comm) {
               if (comm.rank() == 0) {
                 std::vector<char> big(128);
                 comm.send(big.data(), big.size(), 1, 0);
               } else {
                 char tiny[4];
                 comm.recv(tiny, sizeof tiny, 0, 0);
               }
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

// A root outside the job fails at the call, as a bad send destination
// does: not from a node lookup, an internal send or not at all.
void expectBadRootThrows(bool reduce) {
  for (const int root : {2, -1}) {
    net::Cluster cluster(smallCluster(2));
    EXPECT_EQ(simErrorOf([&] {
                runJob(cluster, fastInit(), blockMapping(2, 2, 1),
                       [&](Comm& comm) {
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
              std::string(reduce ? "reduce" : "bcast") + ": bad root rank " +
                  std::to_string(root));
  }
}

TEST(Baseline, BadBcastRootThrows) { expectBadRootThrows(false); }

TEST(Baseline, BadReduceRootThrows) { expectBadRootThrows(true); }

// A receive or probe source outside the job fails at the call, as a bad
// send destination does: not as a receive that can never complete or a
// probe that can never see a message.  Any-source passes.
void expectBadSourceThrows(bool probe) {
  for (const int src : {2, 5, -7}) {
    net::Cluster cluster(smallCluster(2));
    EXPECT_EQ(simErrorOf([&] {
                runJob(cluster, fastInit(), blockMapping(2, 2, 1),
                       [&](Comm& comm) {
                         char c = 0;
                         mpi::Status st;
                         if (probe) {
                           EXPECT_FALSE(
                               comm.probe(mpi::kAnySource, 0, &st, false));
                           comm.probe(src, 0, &st, /*blocking=*/false);
                         } else {
                           mpi::Request any =
                               comm.irecv(&c, 1, mpi::kAnySource, 0);
                           EXPECT_FALSE(any.null());
                           comm.irecv(&c, 1, src, 0);
                         }
                       });
              }),
              std::string(probe ? "probe" : "recv") + ": bad source rank " +
                  std::to_string(src));
  }
}

TEST(Baseline, BadRecvSourceThrows) { expectBadSourceThrows(false); }

TEST(Baseline, BadProbeSourceThrows) { expectBadSourceThrows(true); }

}  // namespace
