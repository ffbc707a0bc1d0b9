// Integration tests for the BCS-MPI runtime: correctness of the globally
// scheduled point-to-point and collective protocols, plus the timing
// behaviours the paper states (1.5-slice average blocking delay, full
// overlap for non-blocking operations, chunking of large messages).

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "bcsmpi/comm.hpp"
#include "bcsmpi/runtime.hpp"
#include "mpi/comm.hpp"
#include "net/cluster.hpp"

namespace {

using namespace bcs;
using bcsmpi::BcsMpiConfig;
using bcsmpi::runJob;
using baselineMapping = std::vector<int>;
using mpi::Comm;
using sim::msec;
using sim::usec;

net::ClusterConfig smallCluster(int nodes = 8) {
  net::ClusterConfig cfg;
  cfg.num_compute_nodes = nodes;
  return cfg;
}

BcsMpiConfig fastConfig() {
  BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);  // keep unit tests snappy
  return cfg;
}

std::vector<int> oneRankPerNode(int nprocs) {
  std::vector<int> m(static_cast<std::size_t>(nprocs));
  std::iota(m.begin(), m.end(), 0);
  return m;
}

TEST(BcsMpi, PingPongDeliversPayload) {
  net::Cluster cluster(smallCluster());
  std::vector<int> received;
  runJob(cluster, fastConfig(), oneRankPerNode(2), [&](Comm& comm) {
    std::vector<int> buf(256);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 500);
      comm.sendv<int>(buf, 1, /*tag=*/7);
    } else {
      comm.recvv<int>(buf, 0, 7);
      received = buf;
    }
  });
  ASSERT_EQ(received.size(), 256u);
  EXPECT_EQ(received[0], 500);
  EXPECT_EQ(received[255], 755);
}

TEST(BcsMpi, BlockingDelayIsAboutOneAndAHalfSlices) {
  // §3.1: "the delay per blocking primitive is 1.5 time slices on average".
  // Post at a random point of slice i-1 (expected half a slice before the
  // boundary), scheduled in slice i, restarted at the start of slice i+1.
  net::Cluster cluster(smallCluster());
  BcsMpiConfig cfg = fastConfig();
  std::vector<double> delays;
  runJob(cluster, cfg, oneRankPerNode(2), [&](Comm& comm) {
    char c = 0;
    // Misalign successive iterations against the slice grid.
    for (int i = 0; i < 40; ++i) {
      comm.compute(usec(137));
      if (comm.rank() == 0) {
        const sim::SimTime t0 = comm.now();
        comm.send(&c, 1, 1, 0);
        delays.push_back(sim::toUsec(comm.now() - t0));
      } else {
        comm.recv(&c, 1, 0, 0);
      }
    }
  });
  ASSERT_EQ(delays.size(), 40u);
  double mean = 0;
  for (double d : delays) mean += d;
  mean /= static_cast<double>(delays.size());
  const double slice_us = sim::toUsec(cfg.time_slice);
  // Sender also waits for the receiver's own slice alignment; the average
  // must sit near 1.5 slices (tolerate 1.0-2.5).
  EXPECT_GT(mean, 1.0 * slice_us);
  EXPECT_LT(mean, 2.5 * slice_us);
}

TEST(BcsMpi, NonBlockingOverlapsWithComputation) {
  // §3.2: with Isend/Irecv posted early and enough computation, the wait
  // returns without any slice penalty — communication fully overlapped.
  net::Cluster cluster(smallCluster());
  sim::SimTime wait_cost = -1;
  runJob(cluster, fastConfig(), oneRankPerNode(2), [&](Comm& comm) {
    std::vector<char> out(4096, 'a'), in(4096);
    const int peer = 1 - comm.rank();
    std::vector<mpi::Request> reqs;
    reqs.push_back(comm.irecvv<char>(in, peer, 0));
    reqs.push_back(comm.isendv<char>(std::span<const char>(out), peer, 0));
    comm.compute(msec(5));  // 10 slices: transfer done long before
    const sim::SimTime t0 = comm.now();
    comm.waitall(reqs);
    if (comm.rank() == 0) wait_cost = comm.now() - t0;
  });
  ASSERT_GE(wait_cost, 0);
  EXPECT_LT(wait_cost, usec(5));  // no blocking: just the bookkeeping
}

TEST(BcsMpi, UnexpectedSendBuffersUntilReceivePosted) {
  net::Cluster cluster(smallCluster());
  int got = 0;
  runJob(cluster, fastConfig(), oneRankPerNode(2), [&](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 41;
      comm.send(&v, sizeof v, 1, 5);
    } else {
      comm.compute(msec(4));
      int v = 0;
      comm.recv(&v, sizeof v, 0, 5);
      got = v + 1;
    }
  });
  EXPECT_EQ(got, 42);
}

TEST(BcsMpi, LargeMessageIsChunkedAcrossSlices) {
  net::Cluster cluster(smallCluster());
  BcsMpiConfig cfg = fastConfig();
  // 512 KiB at 64 KiB per chunk -> 8 chunks; budget allows ~1 chunk per
  // message per slice, so the transfer spans ~8 slices.
  const std::size_t bytes = 512 * 1024;
  bool ok = false;
  sim::SimTime send_span = 0;
  std::uint64_t chunks = 0;
  {
    auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
    std::vector<sim::SimTime> finish;
    bcsmpi::launchJob(*runtime, oneRankPerNode(2), [&](Comm& comm) {
      std::vector<char> buf(bytes);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = static_cast<char>(i * 31 + 7);
        }
        const sim::SimTime t0 = comm.now();
        comm.send(buf.data(), bytes, 1, 0);
        send_span = comm.now() - t0;
      } else {
        comm.recv(buf.data(), bytes, 0, 0);
        ok = true;
        for (std::size_t i = 0; i < bytes; ++i) {
          if (buf[i] != static_cast<char>(i * 31 + 7)) {
            ok = false;
            break;
          }
        }
      }
    });
    cluster.run();
    ASSERT_TRUE(cluster.allProcessesFinished());
    chunks = runtime->stats().chunks_transferred;
  }
  EXPECT_TRUE(ok);
  EXPECT_GE(chunks, 8u);
  // The transfer must span at least ~8 slices.
  EXPECT_GT(send_span, 8 * cfg.time_slice);
}

TEST(BcsMpi, TagAndSourceSelectivity) {
  net::Cluster cluster(smallCluster());
  std::vector<int> order;
  runJob(cluster, fastConfig(), oneRankPerNode(3), [&](Comm& comm) {
    if (comm.rank() == 1) {
      const int v = 111;
      comm.compute(msec(2));  // arrives later
      comm.send(&v, sizeof v, 0, 1);
    } else if (comm.rank() == 2) {
      const int v = 222;
      comm.send(&v, sizeof v, 0, 2);
    } else {
      int a = 0, b = 0;
      comm.recv(&a, sizeof a, 1, 1);
      order.push_back(a);
      comm.recv(&b, sizeof b, 2, 2);
      order.push_back(b);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{111, 222}));
}

TEST(BcsMpi, WildcardReceive) {
  net::Cluster cluster(smallCluster());
  std::vector<int> got;
  runJob(cluster, fastConfig(), oneRankPerNode(3), [&](Comm& comm) {
    if (comm.rank() > 0) {
      const int v = comm.rank() * 10;
      if (comm.rank() == 2) comm.compute(msec(2));
      comm.send(&v, sizeof v, 0, 3);
    } else {
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        mpi::Status st;
        comm.recv(&v, sizeof v, mpi::kAnySource, mpi::kAnyTag, &st);
        got.push_back(v);
        EXPECT_EQ(st.source * 10, v);
        EXPECT_EQ(st.bytes, sizeof v);
      }
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 10);
  EXPECT_EQ(got[1], 20);
}

TEST(BcsMpi, NonOvertakingSamePair) {
  net::Cluster cluster(smallCluster());
  std::vector<int> got;
  runJob(cluster, fastConfig(), oneRankPerNode(2), [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<mpi::Request> reqs;
      std::vector<int> vals(10);
      for (int i = 0; i < 10; ++i) {
        vals[static_cast<std::size_t>(i)] = i;
        reqs.push_back(
            comm.isend(&vals[static_cast<std::size_t>(i)], sizeof(int), 1, 0));
      }
      comm.waitall(reqs);
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

TEST(BcsMpi, ProbeSeesExchangedDescriptor) {
  net::Cluster cluster(smallCluster());
  std::size_t probed = 0;
  runJob(cluster, fastConfig(), oneRankPerNode(2), [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(333);
      comm.send(payload.data(), payload.size(), 1, 9);
    } else {
      mpi::Status st;
      EXPECT_TRUE(comm.probe(0, 9, &st, /*blocking=*/true));
      probed = st.bytes;
      std::vector<char> buf(st.bytes);
      comm.recv(buf.data(), buf.size(), st.source, st.tag);
    }
  });
  EXPECT_EQ(probed, 333u);
}

TEST(BcsMpi, BarrierSynchronizes) {
  net::Cluster cluster(smallCluster());
  std::vector<sim::SimTime> after(6);
  runJob(cluster, fastConfig(), oneRankPerNode(6), [&](Comm& comm) {
    comm.compute(msec(comm.rank()));
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], msec(5));
    // All released at the same slice boundary.
    EXPECT_NEAR(static_cast<double>(after[static_cast<std::size_t>(r)]),
                static_cast<double>(after[0]), usec(50));
  }
}

TEST(BcsMpi, BcastFromNonZeroRoot) {
  net::Cluster cluster(smallCluster());
  std::vector<std::vector<int>> results(5);
  runJob(cluster, fastConfig(), oneRankPerNode(5), [&](Comm& comm) {
    std::vector<int> data(64);
    if (comm.rank() == 3) std::iota(data.begin(), data.end(), 40);
    comm.bcast(data.data(), data.size() * sizeof(int), /*root=*/3);
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), 64u);
    EXPECT_EQ(r[0], 40);
    EXPECT_EQ(r[63], 103);
  }
}

TEST(BcsMpi, NicReduceMatchesHostArithmetic) {
  // The RH reduces with softfloat on the NIC; results must equal host IEEE
  // arithmetic bit for bit.
  net::Cluster cluster(smallCluster());
  std::vector<double> nic_result;
  runJob(cluster, fastConfig(), oneRankPerNode(7), [&](Comm& comm) {
    std::vector<double> contrib(8);
    for (std::size_t i = 0; i < contrib.size(); ++i) {
      contrib[i] = 0.1 * static_cast<double>(comm.rank() + 1) +
                   static_cast<double>(i);
    }
    std::vector<double> result(8, -1);
    comm.reduce(contrib.data(), result.data(), 8, mpi::Datatype::kFloat64,
                mpi::ReduceOp::kSum, /*root=*/0);
    if (comm.rank() == 0) nic_result = result;
  });
  ASSERT_EQ(nic_result.size(), 8u);
  // Reference: host arithmetic in the same (tree) order is not required —
  // softfloat addition is exact-rounded, so any order differs by at most
  // the usual FP reassociation.  Sum of ranks' 0.1*(r+1) = 0.1*28 = 2.8.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(nic_result[i], 2.8 + 7.0 * static_cast<double>(i), 1e-9);
  }
}

TEST(BcsMpi, AllreduceDeliversEverywhere) {
  net::Cluster cluster(smallCluster());
  std::vector<std::int64_t> sums(8, 0);
  runJob(cluster, fastConfig(), oneRankPerNode(8), [&](Comm& comm) {
    sums[static_cast<std::size_t>(comm.rank())] = comm.allreduceOne(
        static_cast<std::int64_t>(comm.rank() + 1), mpi::ReduceOp::kSum);
  });
  for (auto s : sums) EXPECT_EQ(s, 36);
}

TEST(BcsMpi, ReduceMinMaxIntAndFloat) {
  net::Cluster cluster(smallCluster());
  std::int64_t imin = 0;
  float fmax = 0;
  runJob(cluster, fastConfig(), oneRankPerNode(5), [&](Comm& comm) {
    const std::int64_t iv = 100 - 7 * comm.rank();
    std::int64_t ir = 0;
    comm.reduce(&iv, &ir, 1, mpi::Datatype::kInt64, mpi::ReduceOp::kMin, 0);
    const float fv = 1.5f * static_cast<float>(comm.rank());
    float fr = 0;
    comm.reduce(&fv, &fr, 1, mpi::Datatype::kFloat32, mpi::ReduceOp::kMax, 0);
    if (comm.rank() == 0) {
      imin = ir;
      fmax = fr;
    }
  });
  EXPECT_EQ(imin, 100 - 28);
  EXPECT_FLOAT_EQ(fmax, 6.0f);
}

TEST(BcsMpi, TwoRanksPerNode) {
  net::Cluster cluster(smallCluster(4));
  std::vector<int> node_of_rank = {0, 0, 1, 1, 2, 2, 3, 3};
  std::vector<std::int64_t> sums(8, 0);
  runJob(cluster, fastConfig(), node_of_rank, [&](Comm& comm) {
    // Mix of p2p (cross-node and same-node) and a collective.
    const int peer = comm.rank() ^ 1;  // same-node partner
    int v = comm.rank() * 3;
    int got = -1;
    mpi::Request rr = comm.irecv(&got, sizeof got, peer, 0);
    mpi::Request sr = comm.isend(&v, sizeof v, peer, 0);
    comm.wait(rr);
    comm.wait(sr);
    EXPECT_EQ(got, peer * 3);
    sums[static_cast<std::size_t>(comm.rank())] = comm.allreduceOne(
        static_cast<std::int64_t>(comm.rank()), mpi::ReduceOp::kSum);
  });
  for (auto s : sums) EXPECT_EQ(s, 28);
}

TEST(BcsMpi, ComposedCollectivesWork) {
  net::Cluster cluster(smallCluster());
  const int P = 4;
  std::vector<bool> ok(static_cast<std::size_t>(P), false);
  runJob(cluster, fastConfig(), oneRankPerNode(P), [&](Comm& comm) {
    const int r = comm.rank();
    bool good = true;
    // alltoall: rank r sends 100*r + d to destination d.
    std::vector<int> send(static_cast<std::size_t>(P));
    std::vector<int> recv(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)] = 100 * r + d;
    }
    comm.alltoall(send.data(), sizeof(int), recv.data());
    for (int s = 0; s < P; ++s) {
      good = good && recv[static_cast<std::size_t>(s)] == 100 * s + r;
    }
    // allgather
    const int contrib = r * r + 1;
    std::vector<int> all(static_cast<std::size_t>(P), -1);
    comm.allgather(&contrib, sizeof(int), all.data());
    for (int i = 0; i < P; ++i) {
      good = good && all[static_cast<std::size_t>(i)] == i * i + 1;
    }
    ok[static_cast<std::size_t>(r)] = good;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST(BcsMpi, DemMsmTakeAboutPaperBudget) {
  // §4.3: the two global-message-scheduling microphases take ~125 us.
  // Verify via trace: P2P strobe minus DEM strobe on an active slice.
  net::Cluster cluster(smallCluster());
  cluster.trace().enable();
  runJob(cluster, fastConfig(), oneRankPerNode(2), [&](Comm& comm) {
    char c = 0;
    if (comm.rank() == 0) {
      comm.send(&c, 1, 1, 0);
    } else {
      comm.recv(&c, 1, 0, 0);
    }
  });
  const auto& recs = cluster.trace().records();
  sim::SimTime dem = -1, p2p = -1;
  for (const auto& r : recs) {
    if (r.category != sim::TraceCategory::kStrobe) continue;
    if (r.message.find("DEM") != std::string::npos && dem < 0) dem = r.time;
    if (r.message.find("P2P") != std::string::npos && p2p < 0) p2p = r.time;
  }
  ASSERT_GE(dem, 0);
  ASSERT_GE(p2p, 0);
  const double span_us = sim::toUsec(p2p - dem);
  EXPECT_GT(span_us, 100.0);
  EXPECT_LT(span_us, 160.0);
}

TEST(BcsMpi, SliceGridIsPeriodic) {
  net::Cluster cluster(smallCluster());
  BcsMpiConfig cfg = fastConfig();
  std::uint64_t slices = 0;
  sim::SimTime span = 0;
  {
    auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
    bcsmpi::launchJob(*runtime, oneRankPerNode(2), [&](Comm& comm) {
      comm.compute(msec(10));
      comm.barrier();
    });
    cluster.run();
    ASSERT_TRUE(cluster.allProcessesFinished());
    slices = runtime->stats().slices;
    span = cluster.engine().now();
  }
  // ~10 ms of work at 500 us slices: at least 20 slices, and the strobe
  // count stays close to elapsed/period (no runaway strobing).
  EXPECT_GE(slices, 20u);
  EXPECT_LE(slices, static_cast<std::uint64_t>(span / cfg.time_slice) + 3);
}

/// Two jobs on the same four nodes with gang scheduling: both must make
/// progress and finish; each sees roughly half the CPU.
void expectGangSharing(BcsMpiConfig cfg, sim::SimTime until) {
  net::Cluster cluster(smallCluster(4));
  cfg.gang_scheduling = true;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  std::vector<sim::SimTime> fin_a, fin_b;
  auto body = [](Comm& comm) {
    for (int i = 0; i < 10; ++i) {
      comm.compute(msec(1));
      comm.barrier();
    }
  };
  bcsmpi::launchJob(*runtime, {0, 1, 2, 3}, body, &fin_a);
  bcsmpi::launchJob(*runtime, {0, 1, 2, 3}, body, &fin_b);
  cluster.run(until);
  ASSERT_TRUE(cluster.allProcessesFinished());
  // Serial work is 10 ms per job; with slice-level gang sharing both jobs
  // take at least ~2x minus overlap slack, and both complete.
  for (auto t : fin_a) EXPECT_GT(t, msec(15));
  for (auto t : fin_b) EXPECT_GT(t, msec(15));
}

TEST(BcsMpi, GangSchedulingSharesMachineBetweenJobs) {
  expectGangSharing(fastConfig(), INT64_MAX);
}

TEST(BcsMpi, TreeGangSchedulingSharesMachineBetweenJobs) {
  // The gang-scheduling decision is a Node Manager duty of every slice
  // start, so the strobe tree must not skip it on idle members: a job whose
  // ranks all block would otherwise keep its CPUs frozen for good.
  BcsMpiConfig cfg = fastConfig();
  cfg.tree_fanout = 2;
  expectGangSharing(cfg, msec(500));
}

TEST(BcsMpi, TreeBlockingProbeSeesTheMessage) {
  // A rank blocked in MPI_Probe is woken at every slice start to look
  // again; under the strobe tree an otherwise idle member must be too.
  net::Cluster cluster(smallCluster(8));
  BcsMpiConfig cfg = fastConfig();
  cfg.tree_fanout = 4;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  char got = 0;
  bcsmpi::launchJob(*runtime, oneRankPerNode(2), [&got](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(msec(2));
      char c = 9;
      comm.send(&c, 1, 1, 5);
    } else {
      mpi::Status st;
      ASSERT_TRUE(comm.probe(0, 5, &st, /*blocking=*/true));
      EXPECT_EQ(st.bytes, 1u);
      comm.recv(&got, 1, 0, 5);
    }
  });
  cluster.run(msec(100));
  EXPECT_TRUE(cluster.allProcessesFinished());
  EXPECT_EQ(got, 9);
}

TEST(BcsMpi, ManySmallMessagesAllToOne) {
  net::Cluster cluster(smallCluster());
  std::int64_t total = 0;
  runJob(cluster, fastConfig(), oneRankPerNode(8), [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::int64_t sum = 0;
      for (int s = 1; s < 8; ++s) {
        for (int k = 0; k < 5; ++k) {
          std::int64_t v = 0;
          comm.recv(&v, sizeof v, s, k);
          sum += v;
        }
      }
      total = sum;
    } else {
      std::vector<mpi::Request> reqs;
      std::vector<std::int64_t> vals(5);
      for (int k = 0; k < 5; ++k) {
        vals[static_cast<std::size_t>(k)] = comm.rank() * 100 + k;
        reqs.push_back(comm.isend(&vals[static_cast<std::size_t>(k)],
                                  sizeof(std::int64_t), 0, k));
      }
      comm.waitall(reqs);
    }
  });
  std::int64_t expect = 0;
  for (int s = 1; s < 8; ++s) {
    for (int k = 0; k < 5; ++k) expect += s * 100 + k;
  }
  EXPECT_EQ(total, expect);
}

TEST(BcsMpi, StressRandomizedExchangePattern) {
  // Property-style: a randomized but deterministic pattern of sends with
  // varying sizes and tags; every byte must arrive intact.
  net::Cluster cluster(smallCluster());
  const int P = 6;
  std::vector<bool> ok(static_cast<std::size_t>(P), false);
  runJob(cluster, fastConfig(), oneRankPerNode(P), [&](Comm& comm) {
    sim::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 77);
    const int r = comm.rank();
    const int right = (r + 1) % P;
    const int left = (r + P - 1) % P;
    bool good = true;
    for (int round = 0; round < 6; ++round) {
      const std::size_t send_n = 64 + (static_cast<std::size_t>(r) * 1315 +
                                       static_cast<std::size_t>(round) * 7919) %
                                          30000;
      const std::size_t recv_n = 64 + (static_cast<std::size_t>(left) * 1315 +
                                       static_cast<std::size_t>(round) * 7919) %
                                          30000;
      std::vector<std::uint8_t> out(send_n), in(recv_n, 0);
      for (std::size_t i = 0; i < send_n; ++i) {
        out[i] = static_cast<std::uint8_t>((i * 131 + static_cast<std::size_t>(r) +
                                            static_cast<std::size_t>(round)) &
                                           0xFF);
      }
      mpi::Request rr = comm.irecv(in.data(), in.size(), left, round);
      mpi::Request sr = comm.isend(out.data(), out.size(), right, round);
      if (rng.below(2) == 0) comm.compute(usec(rng.below(900) + 10));
      comm.wait(rr);
      comm.wait(sr);
      for (std::size_t i = 0; i < recv_n; ++i) {
        if (in[i] != static_cast<std::uint8_t>(
                         (i * 131 + static_cast<std::size_t>(left) +
                          static_cast<std::size_t>(round)) &
                         0xFF)) {
          good = false;
          break;
        }
      }
    }
    ok[static_cast<std::size_t>(r)] = good;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}


TEST(BcsMpi, CheckpointAtSliceBoundaryIsConsistent) {
  // §1: the communication state of all processes is known at the beginning
  // of every time slice — a checkpoint taken there needs no message
  // draining.  Verify the snapshot's global request accounting while a
  // large chunked transfer is mid-flight.
  net::Cluster cluster(smallCluster());
  BcsMpiConfig cfg = fastConfig();
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  std::vector<bcsmpi::CheckpointRecord> records;
  bcsmpi::launchJob(*runtime, oneRankPerNode(2), [&](Comm& comm) {
    std::vector<char> buf(512 * 1024);
    if (comm.rank() == 0) {
      comm.send(buf.data(), buf.size(), 1, 0);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 0);
    }
  });
  // Ask for checkpoints while the chunked transfer is in progress.
  cluster.engine().at(msec(1), [&] {
    runtime->requestCheckpoint(
        [&](const bcsmpi::CheckpointRecord& r) { records.push_back(r); });
  });
  cluster.engine().at(msec(2), [&] {
    runtime->requestCheckpoint(
        [&](const bcsmpi::CheckpointRecord& r) { records.push_back(r); });
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  ASSERT_EQ(records.size(), 2u);

  for (const auto& r : records) {
    ASSERT_EQ(r.jobs.size(), 1u);
    EXPECT_EQ(r.jobs[0].ranks, 2);
    // One send + one recv posted in total.
    EXPECT_EQ(r.jobs[0].requests_posted, 2u);
    // Mid-transfer: not yet completed, and the match registers as a
    // partially moved message on the receiving node.
    EXPECT_EQ(r.jobs[0].requests_completed, 0u);
    std::size_t partial = 0, moved = 0;
    for (const auto& n : r.nodes) {
      partial += n.partial_messages;
      moved += n.partial_bytes_moved;
    }
    EXPECT_EQ(partial, 1u);
    EXPECT_GT(moved, 0u);
    EXPECT_FALSE(r.quiescent);
  }
  // Progress is visible between the two checkpoints.
  std::size_t moved0 = 0, moved1 = 0;
  for (const auto& n : records[0].nodes) moved0 += n.partial_bytes_moved;
  for (const auto& n : records[1].nodes) moved1 += n.partial_bytes_moved;
  EXPECT_GT(moved1, moved0);
}

TEST(BcsMpi, CheckpointOfIdleMachineIsQuiescent) {
  net::Cluster cluster(smallCluster());
  BcsMpiConfig cfg = fastConfig();
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  bool quiescent = false;
  std::uint64_t completed = 0;
  bcsmpi::launchJob(*runtime, oneRankPerNode(2), [&](Comm& comm) {
    char c = 0;
    if (comm.rank() == 0) {
      comm.send(&c, 1, 1, 0);
    } else {
      comm.recv(&c, 1, 0, 0);
    }
    comm.compute(msec(4));  // long idle tail after communication finished
  });
  cluster.engine().at(msec(3), [&] {
    runtime->requestCheckpoint([&](const bcsmpi::CheckpointRecord& r) {
      quiescent = r.quiescent;
      completed = r.jobs[0].requests_completed;
    });
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  EXPECT_TRUE(quiescent);
  EXPECT_EQ(completed, 2u);
}
}  // namespace
