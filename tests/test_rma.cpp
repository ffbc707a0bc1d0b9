// One-sided RMA tests (DESIGN.md §11): passive-target epoch semantics,
// deterministic remote atomics, the fetch-add self-scheduler, fault
// behaviour, and the epoch-race verify pass.
//
// The semantics under test:
//   * ops posted in slice t apply at the target inside slice t's MSM
//     microphase and complete at the origin at the t+1 boundary;
//   * concurrent fetch-adds on one word linearize in canonical rank order,
//     so a replay with the same seed gives an identical trace;
//   * an op whose target node died completes *in error* (status carries
//     kErrPeerUnreachable), it never hangs;
//   * the epoch-race pass is a pure observer: verify-on and verify-off
//     runs of a clean workload trace byte-identically, and conflicting
//     same-epoch accesses are reported with rank + call-site blame.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "apps/selfsched.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "storm/storm.hpp"
#include "verify/verify.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::usec;
using verify::Category;

bcsmpi::BcsApi& apiOf(mpi::Comm& comm) {
  auto* bc = dynamic_cast<bcsmpi::BcsComm*>(&comm);
  EXPECT_NE(bc, nullptr);
  return bc->api();
}

/// P compute nodes, one rank per node, tracing on.
struct Harness {
  explicit Harness(int P, std::uint64_t seed = 7, bool verify = false,
                   const sim::FaultPlan& plan = {}) : num_ranks(P) {
    net::ClusterConfig ccfg;
    ccfg.num_compute_nodes = P;
    ccfg.seed = seed;
    ccfg.faults = plan;
    cluster = std::make_unique<net::Cluster>(ccfg);
    cluster->trace().enable();
    bcsmpi::BcsMpiConfig cfg;
    cfg.runtime_init_overhead = usec(50);
    cfg.verify = verify;
    runtime = std::make_shared<bcsmpi::Runtime>(*cluster, cfg);
  }

  void launch(const std::function<void(mpi::Comm&)>& body) {
    std::vector<int> map(num_ranks);
    std::iota(map.begin(), map.end(), 0);
    bcsmpi::launchJob(*runtime, map, body);
  }

  int num_ranks;
  std::unique_ptr<net::Cluster> cluster;
  std::shared_ptr<bcsmpi::Runtime> runtime;
};

// ---------------------------------------------------------------------------
// Epoch visibility semantics
// ---------------------------------------------------------------------------

TEST(Rma, PutBecomesVisibleAtEpochBoundary) {
  Harness h(2);
  std::vector<std::uint8_t> window_mem(256, 0);
  std::vector<std::uint8_t> seen;
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 1) {
      win = api.winCreate(window_mem.data(), window_mem.size());
    }
    comm.barrier();
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> payload(64);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 3 + 1);
      }
      mpi::Status st;
      api.put(payload.data(), payload.size(), /*target=*/1, win,
              /*offset=*/32, &st);
      EXPECT_EQ(st.error, mpi::kSuccess);
    }
    // The blocking put returned => its epoch closed; after the barrier the
    // target's memory must hold the payload (passive target: rank 1 never
    // posted anything).
    comm.barrier();
    if (comm.rank() == 1) seen = window_mem;
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  ASSERT_EQ(seen.size(), 256u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(seen[32 + i], static_cast<std::uint8_t>(i * 3 + 1)) << i;
  }
  EXPECT_EQ(seen[0], 0u);
  EXPECT_EQ(seen[96], 0u);
}

TEST(Rma, GetReadsRemoteWindowWithoutTargetAction) {
  Harness h(2);
  std::vector<std::uint8_t> window_mem(128);
  for (std::size_t i = 0; i < window_mem.size(); ++i) {
    window_mem[i] = static_cast<std::uint8_t>(200 - i);
  }
  std::vector<std::uint8_t> fetched(48, 0);
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 1) {
      win = api.winCreate(window_mem.data(), window_mem.size());
    }
    comm.barrier();
    if (comm.rank() == 0) {
      mpi::Status st;
      api.get(fetched.data(), fetched.size(), /*target=*/1, win,
              /*offset=*/16, &st);
      EXPECT_EQ(st.error, mpi::kSuccess);
    }
    comm.barrier();
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  for (std::size_t i = 0; i < fetched.size(); ++i) {
    EXPECT_EQ(fetched[i], static_cast<std::uint8_t>(200 - (16 + i))) << i;
  }
}

TEST(Rma, SelfNodeRmaUsesNicLoopback) {
  // src == dst goes through the fabric's loopback path (never dropped);
  // a rank may put into its own window like any other target.
  Harness h(1);
  std::int64_t word = 5;
  std::int64_t old = -1;
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win = api.winCreate(&word, sizeof(word));
    old = api.fetchAdd(/*target=*/0, win, /*offset=*/0, 37);
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  EXPECT_EQ(old, 5);
  EXPECT_EQ(word, 42);
}

// ---------------------------------------------------------------------------
// Deterministic remote atomics
// ---------------------------------------------------------------------------

TEST(Rma, FetchAddLinearizesInCanonicalRankOrder) {
  const int P = 4;
  Harness h(P);
  std::int64_t counter = 0;
  std::vector<std::int64_t> olds(P, -1);
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 0) win = api.winCreate(&counter, sizeof(counter));
    comm.barrier();
    // All ranks leave the barrier at the same slice boundary and post in
    // the same epoch; the MSM resolves them in canonical rank order, so
    // rank r must observe exactly r prior increments.
    olds[static_cast<std::size_t>(comm.rank())] =
        api.fetchAdd(/*target=*/0, win, /*offset=*/0, 1);
    comm.barrier();
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  EXPECT_EQ(counter, P);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(olds[static_cast<std::size_t>(r)], r) << "rank " << r;
  }
}

/// Contention workload digest: R rounds of all-rank fetch-adds, trace +
/// resulting olds folded into one string.
std::string contentionDigest() {
  const int P = 8;
  Harness h(P, /*seed=*/99);
  std::int64_t counter = 0;
  std::vector<std::int64_t> olds;
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 0) win = api.winCreate(&counter, sizeof(counter));
    comm.barrier();
    std::vector<std::int64_t> mine;
    for (int round = 0; round < 4; ++round) {
      mine.push_back(api.fetchAdd(0, win, 0, comm.rank() + 1));
    }
    comm.barrier();
    olds.insert(olds.end(), mine.begin(), mine.end());
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  std::string digest = h.cluster->trace().dump();
  std::sort(olds.begin(), olds.end());
  for (std::int64_t v : olds) digest += "," + std::to_string(v);
  digest += "|" + std::to_string(counter);
  return digest;
}

TEST(Rma, FetchAddContentionReplaysByteIdentically) {
  const std::string first = contentionDigest();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(contentionDigest(), first);
}

// ---------------------------------------------------------------------------
// The fetch-add self-scheduler (src/apps/selfsched)
// ---------------------------------------------------------------------------

/// Runs the dynamic self-scheduler on P ranks; returns the trace plus the
/// shared owner-map digest.
std::pair<std::string, std::uint64_t> selfSchedRun() {
  const int P = 8;
  Harness h(P, /*seed=*/4242);
  apps::SelfSchedConfig cfg;
  cfg.chunks = 64;
  cfg.base_cost = usec(80);
  cfg.cost_ramp = 4.0;
  std::vector<std::uint64_t> digests(P, 0);
  h.launch([&](mpi::Comm& comm) {
    const apps::SelfSchedResult res = apps::selfSchedule(comm, cfg);
    digests[static_cast<std::size_t>(comm.rank())] = res.digest;
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(digests[static_cast<std::size_t>(r)], digests[0]);
  }
  return {h.cluster->trace().dump(), digests[0]};
}

TEST(Rma, SelfSchedulerReplaysByteIdentically) {
  const auto first = selfSchedRun();
  EXPECT_FALSE(first.first.empty());
  const auto replay = selfSchedRun();
  EXPECT_EQ(replay.first, first.first);
  EXPECT_EQ(replay.second, first.second);
}

TEST(Rma, SelfSchedulerCoversEveryChunkExactlyOnce) {
  const int P = 4;
  Harness h(P);
  apps::SelfSchedConfig cfg;
  cfg.chunks = 40;
  cfg.base_cost = usec(60);
  std::vector<apps::SelfSchedResult> results(P);
  h.launch([&](mpi::Comm& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        apps::selfSchedule(comm, cfg);
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  std::vector<int> times_run(static_cast<std::size_t>(cfg.chunks), 0);
  for (const auto& res : results) {
    for (int c : res.chunks) ++times_run[static_cast<std::size_t>(c)];
  }
  for (int c = 0; c < cfg.chunks; ++c) {
    EXPECT_EQ(times_run[static_cast<std::size_t>(c)], 1) << "chunk " << c;
  }
  // The shared owner map agrees with the local claim lists.
  for (const auto& res : results) {
    ASSERT_EQ(res.owners.size(), static_cast<std::size_t>(cfg.chunks));
    for (int c : res.chunks) {
      EXPECT_EQ(res.owners[static_cast<std::size_t>(c)],
                &res - results.data());
    }
  }
}

// ---------------------------------------------------------------------------
// Faults: RMA onto a crashed peer completes in error
// ---------------------------------------------------------------------------

TEST(Rma, PutOntoCrashedPeerCompletesInError) {
  const int P = 4;
  sim::FaultPlan plan;
  plan.dropRate(0.05);
  plan.crashNode(1, msec(4));
  Harness h(P, /*seed=*/31337, /*verify=*/false, plan);

  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  storm::Storm storm(*h.cluster, scfg);
  storm.setDeathHandler(
      [&](int node) { h.runtime->notifyNodeFailure(node); });
  storm.startHeartbeats();
  h.cluster->engine().at(msec(60), [&] { storm.stopHeartbeats(); });

  std::vector<std::uint8_t> window_mem(64, 0);
  std::vector<int> errors(P, -1);
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 1) {
      win = api.winCreate(window_mem.data(), window_mem.size());
    }
    comm.barrier();
    if (comm.rank() == 1) {
      // The victim spins until its node is crashed out from under it.
      for (int i = 0; i < 1000; ++i) comm.compute(usec(100));
      return;
    }
    // Keep putting at the (soon-dead) rank 1 until the eviction lands; the
    // op must complete in error, never hang.
    std::uint8_t byte = static_cast<std::uint8_t>(comm.rank());
    for (int round = 0; round < 64; ++round) {
      mpi::Status st;
      api.put(&byte, 1, /*target=*/1, win,
              static_cast<std::size_t>(comm.rank()), &st);
      if (st.error != mpi::kSuccess) {
        errors[static_cast<std::size_t>(comm.rank())] = st.error;
        return;
      }
    }
  });
  h.cluster->run();
  EXPECT_GE(h.runtime->stats().evictions, 1u);
  for (int r : {0, 2, 3}) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], mpi::kErrPeerUnreachable)
        << "rank " << r << " never saw the eviction";
  }
}

// ---------------------------------------------------------------------------
// The epoch-race verify pass
// ---------------------------------------------------------------------------

/// A clean RMA workload (disjoint put ranges + commuting fetch-adds) run
/// with the verifier on or off; returns the full trace.
std::string cleanRmaTrace(bool verify) {
  const int P = 4;
  Harness h(P, /*seed=*/555, verify);
  std::vector<std::uint8_t> window_mem(1024, 0);
  std::int64_t counter = 0;
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow data{0}, ctr{1};
    if (comm.rank() == 0) {
      data = api.winCreate(window_mem.data(), window_mem.size());
      ctr = api.winCreate(&counter, sizeof(counter));
    }
    comm.barrier();
    std::vector<std::uint8_t> payload(
        64, static_cast<std::uint8_t>(comm.rank() + 1));
    // Disjoint 64B stripes + same-word fetch-adds: no epoch race.
    api.put(payload.data(), payload.size(), 0, data,
            static_cast<std::size_t>(comm.rank()) * 64);
    api.fetchAdd(0, ctr, 0, 1);
    comm.barrier();
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  if (verify) {
    const verify::VerifyReport* rep = h.runtime->verifyAudit();
    EXPECT_NE(rep, nullptr);
    if (rep) {
      EXPECT_EQ(rep->count(Category::kEpochRace), 0u);
    }
  }
  EXPECT_EQ(counter, P);
  return h.cluster->trace().dump();
}

TEST(Rma, VerifyOnOffTracesAreByteIdentical) {
  EXPECT_EQ(cleanRmaTrace(false), cleanRmaTrace(true));
}

TEST(Rma, OverlappingPutsInOneEpochAreReportedWithBlame) {
  const int P = 3;
  Harness h(P, /*seed=*/11, /*verify=*/true);
  std::vector<std::uint8_t> window_mem(256, 0);
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 2) {
      win = api.winCreate(window_mem.data(), window_mem.size());
    }
    comm.barrier();
    if (comm.rank() != 2) {
      // Ranks 0 and 1 both put [0, 128) — same epoch, order-dependent.
      std::vector<std::uint8_t> payload(
          128, static_cast<std::uint8_t>(comm.rank() + 1));
      api.put(payload.data(), payload.size(), 2, win, 0);
    }
    comm.barrier();
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  const verify::VerifyReport* rep = h.runtime->verifyAudit();
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->count(Category::kEpochRace), 1u);
  const std::string text = rep->render();
  EXPECT_NE(text.find("epoch-race"), std::string::npos) << text;
  EXPECT_NE(text.find("put by rank 0"), std::string::npos) << text;
  EXPECT_NE(text.find("put by rank 1"), std::string::npos) << text;
  EXPECT_NE(text.find("window 0 of rank 2"), std::string::npos) << text;
}

TEST(Rma, PutGetOverlapInOneEpochIsReported) {
  const int P = 3;
  Harness h(P, /*seed=*/12, /*verify=*/true);
  std::vector<std::uint8_t> window_mem(256, 7);
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow win{0};
    if (comm.rank() == 2) {
      win = api.winCreate(window_mem.data(), window_mem.size());
    }
    comm.barrier();
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> payload(64, 9);
      api.put(payload.data(), payload.size(), 2, win, 32);
    } else if (comm.rank() == 1) {
      std::vector<std::uint8_t> out(64);
      api.get(out.data(), out.size(), 2, win, 64);  // overlaps [64, 96)
    }
    comm.barrier();
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  const verify::VerifyReport* rep = h.runtime->verifyAudit();
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->count(Category::kEpochRace), 1u);
  const std::string text = rep->render();
  EXPECT_NE(text.find("put"), std::string::npos) << text;
  EXPECT_NE(text.find("get"), std::string::npos) << text;
}

TEST(Rma, CommutingFetchAddsAndDisjointRangesAreNotRaces) {
  const int P = 4;
  Harness h(P, /*seed=*/13, /*verify=*/true);
  std::vector<std::uint8_t> window_mem(512, 0);
  std::int64_t counter = 0;
  h.launch([&](mpi::Comm& comm) {
    bcsmpi::BcsApi& api = apiOf(comm);
    bcsmpi::BcsWindow data{0}, ctr{1};
    if (comm.rank() == 0) {
      data = api.winCreate(window_mem.data(), window_mem.size());
      ctr = api.winCreate(&counter, sizeof(counter));
    }
    comm.barrier();
    // Everyone fetch-adds the same word (atomics commute — not a race)
    // and puts a disjoint stripe (no overlap — not a race).
    api.fetchAdd(0, ctr, 0, 2);
    std::vector<std::uint8_t> payload(
        32, static_cast<std::uint8_t>(comm.rank()));
    api.put(payload.data(), payload.size(), 0, data,
            static_cast<std::size_t>(comm.rank()) * 128);
    comm.barrier();
  });
  h.cluster->run();
  EXPECT_TRUE(h.cluster->allProcessesFinished());
  const verify::VerifyReport* rep = h.runtime->verifyAudit();
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->count(Category::kEpochRace), 0u);
  EXPECT_EQ(counter, 2 * P);
}

}  // namespace
