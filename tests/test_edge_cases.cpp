// Edge cases and failure-mode tests across the stack: engine cancellation
// under churn, fat-tree radix sweeps, fabric loopback and zero-byte
// messages, histogram corners, eager/rendezvous threshold boundary, and
// atomicity of Xfer-And-Signal delivery sets.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "baseline/baseline.hpp"
#include "bcs/core.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "sim/stats.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::usec;

// ------------------------------------------------------------- Engine ----

TEST(EngineEdge, CancelStormLeavesSurvivorsIntact) {
  sim::Engine eng;
  std::vector<sim::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(eng.at(usec(i + 1), [&] { ++fired; }));
  }
  // Cancel every odd event.
  for (std::size_t i = 1; i < ids.size(); i += 2) {
    EXPECT_TRUE(eng.cancel(ids[i]));
  }
  eng.run();
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(EngineEdge, CancelFromInsideAnEarlierEvent) {
  sim::Engine eng;
  bool second_ran = false;
  sim::EventId second = eng.at(usec(10), [&] { second_ran = true; });
  eng.at(usec(5), [&] { EXPECT_TRUE(eng.cancel(second)); });
  eng.run();
  EXPECT_FALSE(second_ran);
}

// ------------------------------------------------------------ FatTree ----

class FatTreeRadix : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeRadix, HopsAreSymmetricAndBounded) {
  const int radix = GetParam();
  net::FatTree t(64, radix);
  for (int a = 0; a < 64; a += 7) {
    for (int b = 0; b < 64; b += 5) {
      if (a == b) {
        EXPECT_EQ(t.hops(a, b), 0);
        continue;
      }
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
      EXPECT_GE(t.hops(a, b), 1);
      EXPECT_LE(t.hops(a, b), 2 * t.levels() - 1);
    }
  }
}

TEST_P(FatTreeRadix, SiblingsAreOneHopApart) {
  const int radix = GetParam();
  net::FatTree t(64, radix);
  EXPECT_EQ(t.hops(0, 1), 1);  // same leaf switch for any radix >= 2
}

INSTANTIATE_TEST_SUITE_P(Radixes, FatTreeRadix, ::testing::Values(2, 4, 8, 16),
                         [](const auto& info) {
                           return "radix" + std::to_string(info.param);
                         });

// ------------------------------------------------------------- Fabric ----

TEST(FabricEdge, ZeroByteUnicastStillPaysLatency) {
  sim::Engine eng;
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), 4);
  sim::SimTime delivered = -1;
  fabric.unicast(0, 1, 0, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, usec(5));
}

TEST(FabricEdge, MulticastToOnlySelfCompletesImmediately) {
  sim::Engine eng;
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), 4);
  bool all = false;
  fabric.multicast(2, std::vector<int>{2}, 1024, {}, [&] { all = true; });
  eng.run();
  EXPECT_TRUE(all);
}

TEST(FabricEdge, OutOfRangeNodesThrow) {
  sim::Engine eng;
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), 4);
  EXPECT_THROW(fabric.unicast(0, 9, 16, [] {}), sim::SimError);
  EXPECT_THROW(fabric.unicast(-1, 0, 16, [] {}), sim::SimError);
}

TEST(BcsCoreEdge, XferSignalsEveryNodeOfTheDestinationSet) {
  // Semantics note 2 (§2): the put reaches *all* nodes of the set; every
  // destination observes the same delivery (atomicity in the absence of
  // injected faults).
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 16;
  net::Cluster cluster(ccfg);
  core::BcsCore core(cluster.fabric());
  const auto ev = core.allocEvent("e");
  std::vector<int> dests;
  for (int n = 1; n < 16; ++n) dests.push_back(n);
  core::XferRequest req;
  req.src_node = 0;
  req.dest_nodes = dests;
  req.bytes = 4096;
  req.remote_event = ev;
  core.xferAndSignal(std::move(req));
  cluster.run();
  for (int n = 1; n < 16; ++n) {
    EXPECT_EQ(core.pendingSignals(n, ev), 1) << "node " << n;
  }
}

// -------------------------------------------------------------- Stats ----

TEST(StatsEdge, HistogramUnderAndOverflow) {
  sim::Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // underflow bucket
  h.add(15.0);   // overflow bucket
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_GE(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(1.0), 10.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(StatsEdge, HistogramRejectsBadConstruction) {
  EXPECT_THROW(sim::Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(sim::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(StatsEdge, AccumulatorSingleValue) {
  sim::Accumulator acc;
  acc.add(42.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
}

// ---------------------------------------- eager/rendezvous boundary ----

TEST(BaselineEdge, ThresholdBoundarySizesDeliverIntact) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  baseline::BaselineConfig cfg;
  cfg.init_overhead = usec(10);
  const std::size_t thr = cfg.eager_threshold;
  const std::size_t sizes[] = {thr - 1, thr, thr + 1, 2 * thr};
  baseline::runJob(cluster, cfg, {0, 1}, [&](mpi::Comm& comm) {
    for (std::size_t s : sizes) {
      std::vector<std::uint8_t> buf(s);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < s; ++i) {
          buf[i] = static_cast<std::uint8_t>(i * 13 + s);
        }
        comm.send(buf.data(), s, 1, 0);
      } else {
        comm.recv(buf.data(), s, 0, 0);
        for (std::size_t i = 0; i < s; i += 101) {
          ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 13 + s))
              << "size " << s << " byte " << i;
        }
      }
    }
  });
}

TEST(BaselineEdge, ZeroByteMessagesMatchByEnvelope) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  baseline::BaselineConfig cfg;
  cfg.init_overhead = usec(10);
  int got_tag = -1;
  baseline::runJob(cluster, cfg, {0, 1}, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(nullptr, 0, 1, 42);
    } else {
      mpi::Status st;
      comm.recv(nullptr, 0, 0, mpi::kAnyTag, &st);
      got_tag = st.tag;
      EXPECT_EQ(st.bytes, 0u);
    }
  });
  EXPECT_EQ(got_tag, 42);
}

TEST(BcsMpiEdge, ZeroByteMessages) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  int got_tag = -1;
  bcsmpi::runJob(cluster, cfg, {0, 1}, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(nullptr, 0, 1, 17);
    } else {
      mpi::Status st;
      comm.recv(nullptr, 0, 0, mpi::kAnyTag, &st);
      got_tag = st.tag;
    }
  });
  EXPECT_EQ(got_tag, 17);
}

TEST(BcsMpiEdge, SelfSendWithinARank) {
  // A rank sending to itself must not deadlock: the non-blocking send is
  // matched against the rank's own posted receive in the same MSM.
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  int got = 0;
  bcsmpi::runJob(cluster, cfg, {0, 1}, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 99;
      int in = 0;
      mpi::Request rr = comm.irecv(&in, sizeof in, 0, 0);
      mpi::Request sr = comm.isend(&v, sizeof v, 0, 0);
      comm.wait(rr);
      comm.wait(sr);
      got = in;
    }
  });
  EXPECT_EQ(got, 99);
}

TEST(BcsMpiEdge, ManyTinyMessagesInOneSliceRespectDescriptorCosts) {
  // 64 one-byte messages posted together all exchange in one DEM and
  // transfer in one slice (budget is byte-based, not count-based).
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  sim::SimTime span = 0;
  bcsmpi::launchJob(*runtime, {0, 1}, [&](mpi::Comm& comm) {
    std::vector<char> vals(64);
    std::vector<mpi::Request> reqs;
    if (comm.rank() == 0) {
      const sim::SimTime t0 = comm.now();
      for (int i = 0; i < 64; ++i) {
        vals[static_cast<std::size_t>(i)] = static_cast<char>(i);
        reqs.push_back(
            comm.isend(&vals[static_cast<std::size_t>(i)], 1, 1, i));
      }
      comm.waitall(reqs);
      span = comm.now() - t0;
    } else {
      for (int i = 0; i < 64; ++i) {
        reqs.push_back(comm.irecv(&vals[static_cast<std::size_t>(i)], 1, 0, i));
      }
      comm.waitall(reqs);
      for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(vals[static_cast<std::size_t>(i)], static_cast<char>(i));
      }
    }
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());
  EXPECT_EQ(runtime->stats().chunks_transferred, 64u);
  // All 64 fit comfortably within ~2 slices of protocol latency.
  EXPECT_LT(span, 3 * cfg.time_slice);
}

}  // namespace
