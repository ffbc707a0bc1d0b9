// Heap-allocation budget of the control-plane hot path.
//
// This binary replaces the global operator new with a counting one, so it
// stays out of the sanitizer presets (their allocators would be bypassed).
// The invariants under test:
//   * with tracing disabled, a fabric unicast and a single-destination
//     Xfer-And-Signal build no trace text: the unicast allocates nothing at
//     all and the Xfer-And-Signal allocates only its shared request, when
//     the callbacks fit the inline slot;
//   * a several-destination Xfer-And-Signal with per-destination work makes
//     exactly two: its shared request and the fabric's one shared state for
//     the callback and the legs (DESIGN.md §5b);
//   * the idle steady state of the strobe-sender tree (every member
//     computing, nothing to match or move), simulated slice by slice, stays
//     within 4 allocations per rack per microphase: the relay's destination
//     set, the ack's destination set and its shared request, plus the
//     root's share;
//   * a replayed quiescent slice (DESIGN.md §5b) allocates nothing, flat or
//     tree;
//   * a warmed-up EventRun (the flat runtime's per-node NIC timers) files
//     and fires a microphase's 31 same-instant members without allocating.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bitset>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "bcs/core.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/event_run.hpp"
#include "sim/trace.hpp"

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

TEST(AllocBudget, DisabledTraceXferAllocatesOnlyItsSharedRequest) {
  sim::Engine eng;
  sim::Trace trace;
  net::Fabric fabric(eng, net::NetworkParams::qsnet(), 8, &trace);
  core::BcsCore core(fabric, &trace);
  const core::GlobalEventId remote = core.allocEvent("remote");
  const core::GlobalEventId local = core.allocEvent("local");
  int delivered = 0;
  int completed = 0;
  std::uint64_t measured = 0;
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    core::XferRequest req;
    req.src_node = 0;
    req.dest_nodes = {1};
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
  EXPECT_EQ(measured, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(delivered, kWarmup + kMeasured);
  EXPECT_EQ(completed, kWarmup + kMeasured);
  EXPECT_EQ(core.pendingSignals(1, remote), kWarmup + kMeasured);
  EXPECT_EQ(core.pendingSignals(0, local), kWarmup + kMeasured);
  EXPECT_TRUE(trace.records().empty());
}

TEST(AllocBudget, DisabledTraceMulticastXferAllocatesTwo) {
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
  EXPECT_EQ(measured, 2u * kMeasured);
  EXPECT_EQ(delivered, kDests * (kWarmup + kMeasured));
  EXPECT_EQ(completed, kWarmup + kMeasured);
  EXPECT_EQ(core.pendingSignals(kDests, remote), kWarmup + kMeasured);
  EXPECT_TRUE(trace.records().empty());
}

TEST(AllocBudget, EventRunMicrophasesAllocateNothing) {
  constexpr int kMembers = 31;
  constexpr int kMicrophases = 1000;
  sim::Engine eng;
  int fired = 0;
  sim::EventRun<int> timers(eng, [&fired](int) { ++fired; });
  // One strobe reaches every node at one instant; each node's timer joins
  // the run at the phase floor, or at the strobe's own instant when idle.
  const auto microphase = [&](int i) {
    eng.after(sim::usec(5), [&timers, i] {
      const sim::Duration floor = i % 2 == 0 ? sim::usec(60) : 0;
      for (int node = 0; node < kMembers; ++node) timers.after(floor, node);
    });
    eng.run();
  };
  for (int i = 0; i < kWarmup; ++i) microphase(i);
  const std::uint64_t before = allocations();
  for (int i = 0; i < kMicrophases; ++i) microphase(i);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(fired, kMembers * (kWarmup + kMicrophases));
  EXPECT_EQ(eng.executedEvents(),
            static_cast<std::uint64_t>((kMembers + 1) *
                                       (kWarmup + kMicrophases)));
}

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

net::ClusterConfig computeNodes(int n) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = n;
  return ccfg;
}

TEST(AllocBudget, IdleTreeSlicesStayWithinFourPerRackPerMicrophase) {
  constexpr int kNodes = 256;
  constexpr int kFanout = 16;
  constexpr int kRacks = kNodes / kFanout;
  constexpr std::uint64_t kMicrophases = 5;  // DEM, MSM, P2P, BBM, RM

  net::Cluster cluster(computeNodes(kNodes));
  // A no-op event 1 ns into every slice makes the quiescent-slice replay
  // decline, so every slice runs the relay path this budget measures.
  auto runtime = launchIdleJob(cluster, kNodes, kFanout, [&](std::uint64_t) {
    cluster.engine().after(1, [] {});
  });

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

}  // namespace
