// Heap-allocation budget of the control-plane hot path.
//
// This binary replaces the global operator new with a counting one, so it
// stays out of the sanitizer presets (their allocators would be bypassed).
// The invariants under test:
//   * with tracing disabled, a fabric unicast and every shape of
//     Xfer-And-Signal build no trace text and, once warm, allocate nothing:
//     the request lives in a recycled slot (sim/slots.hpp) and the fabric
//     keeps callbacks and legs in recycled storage (DESIGN.md §5b), when
//     the callbacks fit the inline slot;
//   * a warm blocking exchange allocates nothing per message, under BCS-MPI
//     and under the baseline, and neither does a warm CPU-model
//     submit/complete cycle;
//   * every recycled slot comes back after a drop-rate soup and a node
//     crash, also for messages whose callbacks were dropped unrun;
//   * the idle steady state of the strobe-sender tree (every member
//     computing, nothing to match or move), simulated slice by slice, stays
//     within 4 allocations per rack per microphase;
//   * a replayed quiescent slice (DESIGN.md §5b) allocates nothing, flat or
//     tree, and neither does a simulated one once warm: its microstrobes,
//     relays, Compare-And-Write polls, acks and NIC timers run in recycled
//     storage;
//   * a warm busy flat slice whose idle BBM and RM are replayed from their
//     template allocates nothing;
//   * a warmed-up EventRun (the flat runtime's per-node NIC timers) files
//     and fires a microphase's 31 same-instant nodes, one range, without
//     allocating.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bitset>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/baseline.hpp"
#include "bcs/core.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/event_run.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "storm/storm.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* countedAlloc(std::size_t bytes, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(bytes)
                : std::aligned_alloc(align, (bytes + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t bytes) { return countedAlloc(bytes, 0); }
void* operator new[](std::size_t bytes) { return countedAlloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t al) {
  return countedAlloc(bytes, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t bytes, std::align_val_t al) {
  return countedAlloc(bytes, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace bcs;

net::ClusterConfig computeNodes(int n) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = n;
  return ccfg;
}

// Enough back-to-back transfers for the engine's 2 µs-bucket wheel (~524 µs)
// to wrap many times, so every bucket vector already has capacity when
// measuring.
constexpr int kWarmup = 4096;
constexpr int kMeasured = 256;

TEST(AllocBudget, DisabledTraceUnicastAllocatesNothing) {
  sim::Engine eng;
  sim::Trace trace;  // attached but disabled, as in every bench
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), 8, &trace);
  int delivered = 0;
  const auto send = [&] {
    fabric.unicast(0, 1, 64, [&delivered] { ++delivered; });
    eng.run();
  };
  for (int i = 0; i < kWarmup; ++i) send();
  const std::uint64_t before = allocations();
  for (int i = 0; i < kMeasured; ++i) send();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(delivered, kWarmup + kMeasured);
  EXPECT_TRUE(trace.records().empty());
}

TEST(AllocBudget, DisabledTraceXferAllocatesNothing) {
  sim::Engine eng;
  sim::Trace trace;
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), 8, &trace);
  core::BcsCore core(fabric, &trace);
  const core::GlobalEventId remote = core.allocEvent("remote");
  const core::GlobalEventId local = core.allocEvent("local");
  int delivered = 0;
  int completed = 0;
  const std::vector<int> dest{1};
  std::uint64_t measured = 0;
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    core::XferRequest req;
    req.src_node = 0;
    req.dest_nodes = dest;
    req.bytes = 64;
    req.deliver = [&delivered](int) { ++delivered; };
    req.remote_event = remote;
    req.local_event = local;
    req.droppable = true;
    req.on_failed = [&delivered](int) { --delivered; };
    req.on_all = [&completed] { ++completed; };
    const std::uint64_t before = allocations();
    core.xferAndSignal(std::move(req));
    eng.run();
    if (i >= kWarmup) measured += allocations() - before;
  }
  EXPECT_EQ(measured, 0u);
  EXPECT_EQ(delivered, kWarmup + kMeasured);
  EXPECT_EQ(completed, kWarmup + kMeasured);
  EXPECT_EQ(core.pendingSignals(1, remote), kWarmup + kMeasured);
  EXPECT_EQ(core.pendingSignals(0, local), kWarmup + kMeasured);
  EXPECT_EQ(core.xfersInFlight(), 0u);
  EXPECT_TRUE(trace.records().empty());
}

TEST(AllocBudget, DisabledTraceMulticastXferAllocatesNothing) {
  constexpr int kDests = 31;
  sim::Engine eng;
  sim::Trace trace;
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), kDests + 1, &trace);
  core::BcsCore core(fabric, &trace);
  const core::GlobalEventId remote = core.allocEvent("remote");
  std::vector<int> dests(kDests);
  std::iota(dests.begin(), dests.end(), 1);
  int delivered = 0;
  int completed = 0;
  std::uint64_t measured = 0;
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    core::XferRequest req;
    req.src_node = 0;
    req.dest_nodes = dests;
    req.bytes = 64;
    req.deliver = [&delivered](int) { ++delivered; };
    req.remote_event = remote;
    req.on_all = [&completed] { ++completed; };
    const std::uint64_t before = allocations();
    core.xferAndSignal(std::move(req));
    eng.run();
    if (i >= kWarmup) measured += allocations() - before;
  }
  EXPECT_EQ(measured, 0u);
  EXPECT_EQ(delivered, kDests * (kWarmup + kMeasured));
  EXPECT_EQ(completed, kWarmup + kMeasured);
  EXPECT_EQ(core.pendingSignals(kDests, remote), kWarmup + kMeasured);
  EXPECT_EQ(core.xfersInFlight(), 0u);
  EXPECT_TRUE(trace.records().empty());
}

TEST(AllocBudget, EveryXferShapeAllocatesNothingOnceWarm) {
  // The shapes the two tests above leave out: multicasts that signal no
  // event (with and without per-destination data movement), a unicast
  // with no events, and unicasts lost on the wire with and without an
  // on_failed callback.  A lost transfer's slot comes back too.
  constexpr int kNodes = 8;
  enum Shape { kMcastDeliver, kMcastAggregate, kUnicast, kLostReported,
               kLostSilently, kShapes };
  for (int shape = 0; shape < kShapes; ++shape) {
    sim::Engine eng;
    sim::Trace trace;
    net::Fabric fabric(eng, net::NetworkParams::qsnet(), kNodes, &trace);
    sim::FaultPlan plan;
    plan.dropRate(1.0);
    sim::FaultInjector lossy(plan, 7);
    const bool lost = shape == kLostReported || shape == kLostSilently;
    if (lost) fabric.setFaultInjector(&lossy);
    core::BcsCore core(fabric, &trace);
    std::vector<int> dests;
    if (shape == kMcastDeliver || shape == kMcastAggregate) {
      dests.assign({1, 2, 3, 4, 5, 6, 7});
    } else {
      dests.assign({5});
    }
    int calls = 0;
    std::uint64_t measured = 0;
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      core::XferRequest req;
      req.src_node = 0;
      req.dest_nodes = dests;
      req.bytes = 256;
      if (shape != kMcastAggregate) req.deliver = [&calls](int) { ++calls; };
      req.on_all = [&calls] { ++calls; };
      req.droppable = lost;
      if (shape == kLostReported) req.on_failed = [&calls](int) { ++calls; };
      const std::uint64_t before = allocations();
      core.xferAndSignal(std::move(req));
      eng.run();
      if (i >= kWarmup) measured += allocations() - before;
    }
    EXPECT_EQ(measured, 0u) << "shape " << shape;
    EXPECT_EQ(core.xfersInFlight(), 0u) << "shape " << shape;
    // Deliveries plus on_all; a lost transfer runs on_failed or nothing.
    const int per_xfer = shape == kMcastDeliver    ? kNodes - 1 + 1
                         : shape == kMcastAggregate ? 1
                         : shape == kUnicast        ? 2
                         : shape == kLostReported   ? 1
                                                    : 0;
    EXPECT_EQ(calls, per_xfer * (kWarmup + kMeasured)) << "shape " << shape;
    EXPECT_TRUE(trace.records().empty());
  }
}

TEST(AllocBudget, WarmCpuSchedulerCycleAllocatesNothing) {
  // Submit, freeze, thaw and complete user work beside a dæmon, as a
  // rank's compute() under gang scheduling and OS noise does.
  sim::Engine eng;
  sim::CpuScheduler cpu(eng, 2);
  int done = 0;
  const auto cycle = [&] {
    const sim::CpuTaskId a = cpu.submit(
        sim::usec(30), sim::CpuScheduler::Priority::kUser, [&done] { ++done; });
    cpu.submit(sim::usec(20), sim::CpuScheduler::Priority::kUser,
               [&done] { ++done; });
    cpu.submit(sim::usec(5), sim::CpuScheduler::Priority::kDaemon, nullptr);
    eng.after(sim::usec(3), [&cpu, a] { cpu.setRunnable(a, false); });
    eng.after(sim::usec(9), [&cpu, a] { cpu.setRunnable(a, true); });
    eng.run();
  };
  for (int i = 0; i < kWarmup; ++i) cycle();
  const std::uint64_t before = allocations();
  for (int i = 0; i < kMeasured; ++i) cycle();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(done, 2 * (kWarmup + kMeasured));
}

/// Allocations while rank 0 of a two-rank blocking ping-pong runs the last
/// 256 of 2,000 rounds of `bytes`-byte messages, under `run(cluster, body)`.
/// The warm-up lets the engine's wheel buckets, whose use follows the
/// rounds' timing, all reach their capacity.
template <typename Run>
std::uint64_t pingPongWarmRounds(std::size_t bytes, Run run) {
  constexpr int kRounds = 2000;
  constexpr int kMeasuredRounds = 256;
  net::Cluster cluster(computeNodes(2));
  std::uint64_t at_warm = 0;
  std::uint64_t at_end = 0;
  run(cluster, [&](mpi::Comm& comm) {
    std::vector<std::uint8_t> out(bytes, 1), in(bytes);
    const int peer = 1 - comm.rank();
    for (int round = 0; round < kRounds; ++round) {
      if (comm.rank() == 0 && round == kRounds - kMeasuredRounds) {
        at_warm = allocations();
      }
      comm.compute(sim::usec(40));
      if (comm.rank() == 0) {
        comm.send(out.data(), bytes, peer, round);
        comm.recv(in.data(), bytes, peer, round);
      } else {
        comm.recv(in.data(), bytes, peer, round);
        comm.send(out.data(), bytes, peer, round);
      }
    }
    if (comm.rank() == 0) at_end = allocations();
  });
  EXPECT_TRUE(cluster.allProcessesFinished());
  return at_end - at_warm;
}

TEST(AllocBudget, WarmBlockingExchangeAllocatesNothingPerMessage) {
  // An eager-sized and a multi-chunk / rendezvous-sized message: 256
  // measured rounds, 512 messages each.
  for (const std::size_t bytes : {std::size_t{2560}, std::size_t{100 * 1024}}) {
    const std::uint64_t bcs = pingPongWarmRounds(
        bytes, [](net::Cluster& cluster, const auto& body) {
          bcsmpi::BcsMpiConfig cfg;
          cfg.runtime_init_overhead = sim::usec(50);
          auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
          bcsmpi::launchJob(*runtime, {0, 1}, body);
          cluster.run();
          EXPECT_EQ(runtime->messagesInFlight(), 0u);
          EXPECT_EQ(runtime->core().xfersInFlight(), 0u);
        });
    EXPECT_EQ(bcs, 0u) << "BCS-MPI, " << bytes << " B";
    const std::uint64_t base = pingPongWarmRounds(
        bytes, [](net::Cluster& cluster, const auto& body) {
          baseline::BaselineConfig cfg;
          cfg.init_overhead = sim::usec(10);
          baseline::runJob(cluster, cfg, {0, 1}, body);
        });
    EXPECT_EQ(base, 0u) << "baseline, " << bytes << " B";
  }
}

TEST(AllocBudget, EverySlotComesBackAfterADropSoupAndACrash) {
  // 16 nodes, 10 % loss on the droppable paths and a node that dies
  // mid-run: lost descriptors and chunks are retransmitted or failed, the
  // dead node's transfers are dropped unrun, and when the engine has
  // drained every recycled slot is free again.
  constexpr int kRanks = 16;
  net::ClusterConfig ccfg = computeNodes(kRanks);
  ccfg.seed = 20261020;
  ccfg.faults.dropRate(0.1);
  ccfg.faults.crashNode(5, sim::msec(6));
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(50);
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  storm::StormConfig scfg;
  scfg.heartbeat_period = sim::usec(500);
  storm::Storm storm(cluster, scfg);
  storm.setDeathHandler([&](int node) { runtime->notifyNodeFailure(node); });
  storm.startHeartbeats();
  cluster.engine().at(sim::msec(80), [&] { storm.stopHeartbeats(); });
  std::vector<int> map(kRanks);
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map, [](mpi::Comm& comm) {
    std::vector<std::uint8_t> out(96 * 1024), in(96 * 1024);
    for (int round = 0; round < 8; ++round) {
      const int partner = comm.rank() ^ (1 + round % 7);
      if (partner >= comm.size()) continue;
      auto sreq = comm.isend(out.data(), out.size(), partner, round);
      auto rreq = comm.irecv(in.data(), in.size(), partner, round);
      comm.wait(sreq);
      comm.wait(rreq);
    }
  });
  cluster.run();
  EXPECT_GT(cluster.fabric().stats().drops, 0u);
  EXPECT_GT(runtime->stats().retransmits, 0u);
  EXPECT_GE(runtime->stats().evictions, 1u);
  EXPECT_EQ(runtime->messagesInFlight(), 0u);
  EXPECT_EQ(runtime->core().xfersInFlight(), 0u);

  // The baseline, with a node down mid-exchange: the fabric drops every
  // transfer from or to it without a callback to run.
  net::ClusterConfig bcfg = computeNodes(4);
  bcfg.faults.crashNode(3, sim::msec(1));
  net::Cluster bcluster(bcfg);
  baseline::BaselineConfig base_cfg;
  base_cfg.init_overhead = sim::usec(10);
  auto world = std::make_shared<baseline::World>(
      bcluster, base_cfg, std::vector<int>{0, 1, 2, 3});
  for (int r = 0; r < 4; ++r) {
    bcluster.spawn(r, "rank" + std::to_string(r), [world, r](sim::Process& p) {
      const auto owned = world->init(r, p);
      mpi::Comm* comm = owned.get();
      const int peer = r ^ 1;
      for (const std::size_t bytes : {std::size_t{512}, std::size_t{64 * 1024}}) {
        std::vector<std::uint8_t> out(bytes), in(bytes);
        for (int round = 0; round < 20; ++round) {
          auto sreq = comm->isend(out.data(), bytes, peer, round);
          auto rreq = comm->irecv(in.data(), bytes, peer, round);
          comm->wait(sreq);
          comm->wait(rreq);
        }
      }
    });
  }
  bcluster.run();
  EXPECT_FALSE(bcluster.allProcessesFinished());  // ranks 2 and 3 are stuck
  EXPECT_EQ(world->messagesInFlight(), 0u);
}

TEST(AllocBudget, EventRunMicrophasesAllocateNothing) {
  constexpr int kMembers = 31;
  constexpr int kMicrophases = 1000;
  sim::Engine eng;
  int fired = 0;
  sim::EventRun<int> timers(eng, [&fired](int) { ++fired; });
  // One strobe reaches every node at one instant; each node's timer joins
  // the range at the phase floor, or at the strobe's own instant when idle.
  const auto microphase = [&](int i) {
    eng.after(sim::usec(5), [&timers, i] {
      const sim::Duration floor = i % 2 == 0 ? sim::usec(60) : 0;
      for (int node = 0; node < kMembers; ++node) {
        timers.afterRange(floor, node);
      }
    });
    eng.run();
  };
  for (int i = 0; i < kWarmup; ++i) microphase(i);
  const std::uint64_t before = allocations();
  for (int i = 0; i < kMicrophases; ++i) microphase(i);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(fired, kMembers * (kWarmup + kMicrophases));
  // The strobe and one range per microphase.
  EXPECT_EQ(eng.executedEvents(),
            static_cast<std::uint64_t>(2 * (kWarmup + kMicrophases)));
}

/// A no-op engine event every 1 us until `end`.  Every replay's window, from
/// any microstrobe, then holds one, so every slice is simulated.  Its
/// callback fits the engine's inline slot, so it allocates nothing.
struct Ticker {
  Ticker(sim::Engine& engine, sim::SimTime end) : engine(engine), end(end) {
    engine.at(engine.now(), [this] { tick(); });
  }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;
  void tick() {
    if (engine.now() + sim::usec(1) <= end) {
      engine.after(sim::usec(1), [this] { tick(); });
    }
  }
  sim::Engine& engine;
  sim::SimTime end;
};

/// `nodes` ranks, one per node, computing for 300 ms: after launch every
/// slice is pure control plane.  `at_boundary(slice)` runs at every slice
/// boundary (the periodic snapshot sink).
std::shared_ptr<bcsmpi::Runtime> launchIdleJob(
    net::Cluster& cluster, int nodes, int fanout,
    std::function<void(std::uint64_t)> at_boundary) {
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(50);
  cfg.tree_fanout = fanout;
  cfg.checkpoint_every_slices = 1;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  runtime->setSnapshotSink(std::move(at_boundary));
  std::vector<int> map(static_cast<std::size_t>(nodes));
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map,
                    [](mpi::Comm& comm) { comm.compute(sim::msec(300)); });
  return runtime;
}


TEST(AllocBudget, IdleTreeSlicesStayWithinFourPerRackPerMicrophase) {
  constexpr int kNodes = 256;
  constexpr int kFanout = 16;
  constexpr int kRacks = kNodes / kFanout;
  constexpr std::uint64_t kMicrophases = 5;  // DEM, MSM, P2P, BBM, RM

  net::Cluster cluster(computeNodes(kNodes));
  // The ticker makes every replay decline, so every slice runs the relay
  // path this budget measures.
  auto runtime = launchIdleJob(cluster, kNodes, kFanout, [](std::uint64_t) {});
  const Ticker ticker(cluster.engine(), sim::msec(300));

  // Past launch every rank is inside its compute: the slices in between are
  // pure control plane.
  cluster.run(sim::msec(50));
  const std::uint64_t slices_before = runtime->stats().slices;
  const std::uint64_t before = allocations();
  cluster.run(sim::msec(150));
  const std::uint64_t allocs = allocations() - before;
  const std::uint64_t slices = runtime->stats().slices - slices_before;
  cluster.run();
  EXPECT_TRUE(cluster.allProcessesFinished());

  ASSERT_GT(slices, 100u);
  const double per_rack_microphase =
      static_cast<double>(allocs) /
      static_cast<double>(slices * kMicrophases * kRacks);
  std::printf("idle tree: %llu allocations over %llu slices = %.2f per rack "
              "per microphase\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(slices), per_rack_microphase);
  EXPECT_LE(per_rack_microphase, 4.0);
}

/// Simulates the idle job slice by slice (the ticker makes every replay
/// decline) and expects no allocation in the slices after a warm-up:
/// bring-up, then enough slices for every engine bucket, event run,
/// conditional round, leg and request slot to have reached its capacity.
/// The measured slices end before the ranks' computes do.
void expectSimulatedSlicesAllocateNothing(int nodes, int fanout) {
  net::Cluster cluster(computeNodes(nodes));
  std::vector<std::uint64_t> allocs;
  std::vector<sim::SimTime> at;
  allocs.reserve(1024);
  at.reserve(1024);
  auto runtime = launchIdleJob(cluster, nodes, fanout, [&](std::uint64_t) {
    allocs.push_back(allocations());
    at.push_back(cluster.engine().now());
  });
  const Ticker ticker(cluster.engine(), sim::msec(300));
  cluster.run();
  EXPECT_TRUE(cluster.allProcessesFinished());
  constexpr std::size_t kWarmup = 400;
  std::size_t slices = 0;
  std::uint64_t measured = 0;
  for (std::size_t i = kWarmup; i + 1 < allocs.size(); ++i) {
    if (at[i + 1] >= sim::msec(300)) break;
    ++slices;
    measured += allocs[i + 1] - allocs[i];
  }
  EXPECT_GE(slices, 150u) << "fanout " << fanout;
  EXPECT_EQ(measured, 0u) << "over " << slices << " slices, fanout "
                          << fanout;
}

TEST(AllocBudget, SimulatedFlatSlicesAllocateNothing) {
  // Microstrobes to the live set, Compare-And-Write polls, the NIC timers
  // and the idle phases.
  expectSimulatedSlicesAllocateNothing(32, 0);
}

TEST(AllocBudget, SimulatedTreeSlicesAllocateNothing) {
  // The root's strobes to the rack Strobe Senders, their relays to the
  // members (destination sets rebuilt in reused vectors), the idle
  // fan-outs and the coalesced acks.
  expectSimulatedSlicesAllocateNothing(256, 16);
}

/// Replayed slices before the next-slice entries they file have reached
/// every bucket of the engine's wheel (256 buckets of 2,048 ns), from the
/// worst start.  Each replayed slice files its successor 500,000 ns ahead:
/// 244.140625 buckets on, so the filing bucket steps back 11.859375
/// buckets per slice around the wheel.  As gcd(500,000, 524,288) = 32, the
/// filings fall into 16,384 distinct positions within a bucket lap; from
/// the worst of them it takes 367 slices to have filed into every bucket.
std::size_t slicesToFileIntoEveryBucket() {
  constexpr std::int64_t kSlice = 500'000;
  constexpr std::int64_t kBucket = 2'048;
  constexpr std::size_t kBuckets = 256;
  constexpr std::int64_t kLap = kBucket * static_cast<std::int64_t>(kBuckets);
  std::size_t worst = 0;
  for (std::int64_t start = 0; start < kLap; start += std::gcd(kSlice, kLap)) {
    std::bitset<kBuckets> filed;
    std::size_t slices = 0;
    for (; !filed.all(); ++slices) {
      const std::int64_t when =
          start + static_cast<std::int64_t>(slices) * kSlice;
      filed.set(static_cast<std::size_t>(when / kBucket) % kBuckets);
    }
    worst = std::max(worst, slices);
  }
  return worst;
}

TEST(AllocBudget, ReplayedIdleSlicesAllocateNothing) {
  const std::size_t wheel_warmup = slicesToFileIntoEveryBucket();
  ASSERT_EQ(wheel_warmup, 367u);
  for (const int fanout : {0, 16}) {
    const int nodes = fanout == 0 ? 32 : 256;
    net::Cluster cluster(computeNodes(nodes));
    // Allocations and engine events at every boundary.  A slice that ran
    // exactly one engine event (its successor's startSlice) was replayed.
    std::vector<std::uint64_t> allocs;
    std::vector<std::uint64_t> events;
    allocs.reserve(1024);
    events.reserve(1024);
    auto runtime = launchIdleJob(cluster, nodes, fanout, [&](std::uint64_t) {
      allocs.push_back(allocations());
      events.push_back(cluster.engine().executedEvents());
    });
    cluster.run();
    EXPECT_TRUE(cluster.allProcessesFinished());

    // Warm-up: bring-up and the slice that records the template, up to the
    // first replayed slice, then enough replayed slices for their
    // next-slice entries to have been filed into every wheel bucket, so
    // every bucket vector already has capacity.  The watchdog timer runs
    // between some slices; it files into the overflow heap.
    std::size_t first_replay = 0;
    while (first_replay + 1 < events.size() &&
           events[first_replay + 1] - events[first_replay] != 1) {
      ++first_replay;
    }
    std::uint64_t replayed = 0;
    std::uint64_t replayed_allocs = 0;
    for (std::size_t i = first_replay + wheel_warmup; i + 1 < events.size();
         ++i) {
      if (events[i + 1] - events[i] != 1) continue;
      ++replayed;
      replayed_allocs += allocs[i + 1] - allocs[i];
    }
    EXPECT_GE(replayed, 100u) << "fanout " << fanout;
    EXPECT_EQ(replayed_allocs, 0u) << "fanout " << fanout;
  }
}

/// Allocations and engine events at every boundary of a 32-node flat ring:
/// each rank exchanges 64 bytes with both neighbours in every slice and
/// does nothing else, so each slice is busy in its DEM, MSM and P2P and
/// idle in its BBM and RM.  A traced run lists the instants of the BBM and
/// RM microstrobes; `noop_after` files a no-op 1 ns after each of them,
/// which lies inside the window of every replay.
struct BusyRing {
  std::vector<std::uint64_t> allocs;
  std::vector<std::uint64_t> events;
  std::vector<sim::SimTime> tail_strobes;
};

BusyRing runBusyRing(bool traced, const std::vector<sim::SimTime>& noop_after) {
  constexpr int kNodes = 32;
  constexpr int kRounds = 250;
  net::Cluster cluster(computeNodes(kNodes));
  if (traced) cluster.trace().enable();
  BusyRing out;
  out.allocs.reserve(1024);
  out.events.reserve(1024);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = sim::usec(50);
  cfg.checkpoint_every_slices = 1;
  // One slice per lap of the engine's wheel (256 buckets of 2,048 ns), so
  // every slice files its events into the buckets the slice before used.
  cfg.time_slice = 256 * 2048;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  runtime->setSnapshotSink([&](std::uint64_t) {
    out.allocs.push_back(allocations());
    out.events.push_back(cluster.engine().executedEvents());
  });
  std::vector<int> map(kNodes);
  std::iota(map.begin(), map.end(), 0);
  bcsmpi::launchJob(*runtime, map, [](mpi::Comm& comm) {
    const int p = comm.size();
    const int me = comm.rank();
    std::array<std::uint8_t, 64> out_buf{};
    std::array<std::uint8_t, 64> in_left{};
    std::array<std::uint8_t, 64> in_right{};
    std::array<mpi::Request, 4> reqs;
    for (int round = 0; round < kRounds; ++round) {
      reqs[0] = comm.irecv(in_left.data(), 64, (me + p - 1) % p, 0);
      reqs[1] = comm.irecv(in_right.data(), 64, (me + 1) % p, 1);
      reqs[2] = comm.isend(out_buf.data(), 64, (me + 1) % p, 0);
      reqs[3] = comm.isend(out_buf.data(), 64, (me + p - 1) % p, 1);
      comm.waitall(reqs);
    }
  });
  for (const sim::SimTime t : noop_after) cluster.engine().at(t + 1, [] {});
  cluster.run();
  EXPECT_TRUE(cluster.allProcessesFinished());
  if (traced) {
    for (const sim::TraceRecord& r : cluster.trace().records()) {
      if (r.message.starts_with("microstrobe BBM") ||
          r.message.starts_with("microstrobe RM")) {
        out.tail_strobes.push_back(r.time);
      }
    }
  }
  return out;
}

TEST(AllocBudget, BusySlicesWithReplayedTailsAllocateNothing) {
  const BusyRing traced = runBusyRing(true, {});
  const BusyRing replayed = runBusyRing(false, {});
  const BusyRing simulated = runBusyRing(false, traced.tail_strobes);
  ASSERT_EQ(replayed.events.size(), simulated.events.size());
  // Warm-up: bring-up and the slice that records the tail's template,
  // then enough busy slices for every wheel bucket, conditional round, leg
  // and descriptor slot to have reached its capacity.
  constexpr std::size_t kWarmup = 50;
  std::size_t slices = 0;
  std::uint64_t allocs = 0;
  for (std::size_t i = kWarmup; i + 2 < replayed.events.size(); ++i) {
    ++slices;
    allocs += replayed.allocs[i + 1] - replayed.allocs[i];
    // The premise: the tail was replayed, so the slice ran the BBM's and
    // RM's six events (strobe legs, NIC timer range, poll each) fewer than
    // the simulated one, which also ran the two no-ops.
    EXPECT_EQ((simulated.events[i + 1] - simulated.events[i]) -
                  (replayed.events[i + 1] - replayed.events[i]),
              8u)
        << "slice at boundary " << i;
  }
  EXPECT_GE(slices, 150u);
  EXPECT_EQ(allocs, 0u) << "over " << slices << " slices";
  for (std::size_t i = 1; i + 1 < replayed.events.size(); ++i) {
    const auto a = replayed.allocs[i + 1] - replayed.allocs[i];
    const auto b = simulated.allocs[i + 1] - simulated.allocs[i];
    if (a || b) std::printf("DBG %zu %llu %llu\n", i, (unsigned long long)a, (unsigned long long)b);
  }
}

}  // namespace
