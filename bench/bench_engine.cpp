// Microbenchmark of the simulation core's hot paths, tracking the perf
// trajectory over PRs:
//
//   * events/sec   — calendar-queue engine on a slice-shaped event soup at
//                    32/128/512 simulated nodes;
//   * matches/sec  — envelope-hash MSM matcher vs the reference quadratic
//                    matcher on a randomized descriptor soup;
//   * slices/sec   — wall-clock slice rate of a full BCS-MPI runtime driving
//                    a sparse job (one 512B neighbor exchange, then a long
//                    compute block), so the measurement is control-plane
//                    cost: strobes, floors, acks.  Measured flat and through
//                    the hierarchical strobe tree (tree_fanout = 32) at
//                    512/1024/2048 nodes; `tree_speedup_n512` is the gated
//                    ratio (DESIGN.md §7).
//
// Results go to stdout; with --out <json> they are also written to that file
// (flat "key": value pairs, replacing it), and nothing is written without
// it, so a run cannot overwrite the checked-in BENCH_engine.json by
// accident.  With --baseline <json>, throughput keys are compared against
// the checked-in baseline and the run fails on a >30% regression — this is
// the `bench_quick` CTest entry (see the `bench` CMake preset).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bcsmpi/comm.hpp"
#include "bcsmpi/matching.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using namespace bcs;
using sim::SimTime;
using sim::usec;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Event soup: per slice and node, five jittered microphase events, an op
// completion, a usually-cancelled timeout, and an occasional beyond-horizon
// watchdog — the event mix a slice-synchronous runtime generates.
// ---------------------------------------------------------------------------

/// Capture state of a typical runtime callback (`this` + node/phase ids +
/// a sequence number), within the engine's 40-byte inline slot.
struct CallbackCtx {
  void* owner;
  int node;
  int phase;
  std::uint64_t seq;
};

// Per slice, each node schedules: ten jittered microphase/completion events
// (strobe arrivals, phase floors, per-chunk op completions) and one
// retransmit timeout eight slices out that is almost always cancelled when
// the "op" completes first — the timer pattern that litters the pending set
// with mid-life cancellations.  Jitter comes from tables precomputed outside
// the timed region so the measurement is queue work, not RNG.
double soupEventsPerSec(int nodes, long long slices,
                        std::uint64_t* executed_out = nullptr) {
  constexpr int kPerNode = 10;
  constexpr int kTimeoutSlices = 8;
  sim::Engine eng;
  sim::Rng rng(2026);
  const SimTime slice_len = usec(500);
  std::uint64_t sink = 0;

  std::vector<SimTime> jitter(static_cast<std::size_t>(nodes) * kPerNode);
  for (auto& j : jitter) {
    j = static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(
        slice_len - 2000)));
  }
  std::vector<std::uint8_t> cancel_mask(
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(slices));
  for (auto& c : cancel_mask) c = rng.below(16) != 0;  // ~94% cancelled

  // Ring of live retransmit timers, cancelled kTimeoutSlices later.
  std::vector<sim::EventId> timers(static_cast<std::size_t>(nodes) *
                                   kTimeoutSlices);

  std::function<void(long long)> start_slice = [&](long long s) {
    if (s >= slices) return;
    const SimTime t0 = eng.now();
    for (int n = 0; n < nodes; ++n) {
      const CallbackCtx ctx{&eng, n, 0, static_cast<std::uint64_t>(s)};
      const SimTime* jit = &jitter[static_cast<std::size_t>(n) * kPerNode];
      for (int p = 0; p < kPerNode; ++p) {
        eng.at(t0 + jit[p], [ctx, &sink] { sink += ctx.seq + ctx.node; });
      }
      // Cancel the timer armed kTimeoutSlices ago (its op completed) and
      // arm this slice's.
      sim::EventId& timer = timers[static_cast<std::size_t>(
          (s % kTimeoutSlices) * nodes + n)];
      if (s >= kTimeoutSlices &&
          cancel_mask[static_cast<std::size_t>(s - kTimeoutSlices) *
                          static_cast<std::size_t>(nodes) +
                      static_cast<std::size_t>(n)]) {
        eng.cancel(timer);
      }
      timer = eng.at(t0 + kTimeoutSlices * slice_len + jit[0],
                     [ctx, &sink] { sink += ctx.node; });
    }
    eng.at(t0 + slice_len, [&start_slice, s] { start_slice(s + 1); });
  };

  eng.at(0, [&start_slice] { start_slice(0); });
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const double secs = secondsSince(t0);
  if (executed_out) *executed_out = eng.executedEvents() + (sink & 1);
  return static_cast<double>(eng.executedEvents()) / secs;
}

// ---------------------------------------------------------------------------
// Matcher throughput on a randomized descriptor soup.
// ---------------------------------------------------------------------------

struct MatchSoup {
  std::vector<bcsmpi::SendDescriptor> sends;
  std::vector<bcsmpi::RecvDescriptor> recvs;
};

MatchSoup makeMatchSoup(int count, std::uint64_t seed) {
  MatchSoup soup;
  sim::Rng rng(seed);
  std::uint64_t seq = 0;
  for (int i = 0; i < count; ++i) {
    bcsmpi::SendDescriptor s;
    s.job = 0;
    s.dst_rank = static_cast<int>(rng.below(4));
    s.src_rank = static_cast<int>(rng.below(16));
    s.tag = static_cast<int>(rng.below(4));
    s.bytes = 64;
    s.seq = ++seq;
    soup.sends.push_back(s);

    bcsmpi::RecvDescriptor r;
    r.job = 0;
    r.dst_rank = static_cast<int>(rng.below(4));
    r.want_src = rng.below(16) == 0 ? mpi::kAnySource
                                    : static_cast<int>(rng.below(16));
    r.want_tag = rng.below(16) == 0 ? mpi::kAnyTag
                                    : static_cast<int>(rng.below(4));
    r.bytes = 64;
    r.seq = ++seq;
    soup.recvs.push_back(r);
  }
  return soup;
}

double indexMatchesPerSec(const MatchSoup& soup, std::uint64_t* matched_out) {
  bcsmpi::SendMatchIndex sends;
  bcsmpi::RecvMatchIndex recvs;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& s : soup.sends) sends.insert(s);
  for (const auto& r : soup.recvs) recvs.insert(r);
  std::vector<std::uint64_t> cand;
  sends.forEachEnvelope([&](const bcsmpi::EnvelopeKey& key) {
    if (const auto* bucket = recvs.bucketFor(key)) {
      cand.insert(cand.end(), bucket->begin(), bucket->end());
    }
  });
  cand.insert(cand.end(), recvs.wildcards().begin(), recvs.wildcards().end());
  std::sort(cand.begin(), cand.end());
  std::uint64_t matched = 0;
  for (const std::uint64_t recv_seq : cand) {
    const auto* r = recvs.find(recv_seq);
    if (!r) continue;
    const auto* s = sends.lowestSeqMatch(*r);
    if (!s) continue;
    sends.take(s->seq);
    recvs.take(recv_seq);
    ++matched;
  }
  const double secs = secondsSince(t0);
  if (matched_out) *matched_out = matched;
  return static_cast<double>(matched) / secs;
}

double quadraticMatchesPerSec(const MatchSoup& soup) {
  std::deque<bcsmpi::SendDescriptor> sends(soup.sends.begin(),
                                           soup.sends.end());
  std::deque<bcsmpi::RecvDescriptor> recvs(soup.recvs.begin(),
                                           soup.recvs.end());
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t matched = 0;
  for (auto rit = recvs.begin(); rit != recvs.end();) {
    auto sit = sends.end();
    for (auto cand = sends.begin(); cand != sends.end(); ++cand) {
      if (!bcsmpi::envelopeMatches(*rit, *cand)) continue;
      if (sit == sends.end() || cand->seq < sit->seq) sit = cand;
    }
    if (sit == sends.end()) {
      ++rit;
      continue;
    }
    ++matched;
    sends.erase(sit);
    rit = recvs.erase(rit);
  }
  const double secs = secondsSince(t0);
  return static_cast<double>(matched) / secs;
}

// ---------------------------------------------------------------------------
// Full-runtime slice rate: sparse job, one rank per node.  One 512B neighbor
// exchange and then a 250ms compute block (~500 slices at the 500µs grid), so
// nearly every slice is pure control plane — microstrobes, phase floors,
// completion acks — and slices/sec measures that plane's scheduling cost
// rather than fiber context switches or payload movement.  Only the
// steady-state window (sim time 10ms..240ms, ~460 slices) is timed: job
// launch starts one fiber per rank (on stacks recycled from the previous
// run, mapped only by the first) and teardown unwinds them, a fixed
// O(nodes) host cost that belongs to neither the flat nor the tree control
// plane and would otherwise swamp the short tree runs.  tree_fanout
// = 0 is the flat Strobe Sender; > 0 routes the same job through the
// hierarchical strobe tree (DESIGN.md §7).
// ---------------------------------------------------------------------------

double runtimeSlicesPerSec(int nodes, int tree_fanout,
                           std::uint64_t* slices_out = nullptr) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = nodes;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  cfg.tree_fanout = tree_fanout;
  std::vector<int> map(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) map[static_cast<std::size_t>(i)] = i;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  const int P = nodes;
  bcsmpi::launchJob(*runtime, map, [P](mpi::Comm& comm) {
    std::vector<char> out(512, 'x'), in(512);
    const int me = comm.rank();
    std::vector<mpi::Request> reqs;
    reqs.push_back(comm.irecv(in.data(), in.size(), (me + P - 1) % P, 0));
    reqs.push_back(comm.isend(out.data(), out.size(), (me + 1) % P, 0));
    comm.waitall(reqs);
    comm.compute(sim::msec(250));
  });
  cluster.run(sim::msec(10));  // startup + exchange, untimed
  const std::uint64_t s0 = runtime->stats().slices;
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run(sim::msec(240));  // steady-state control plane, timed
  const double secs = secondsSince(t0);
  const std::uint64_t slices = runtime->stats().slices - s0;
  cluster.run();  // drain: compute wakes, finalize, fiber exits
  if (slices_out) *slices_out = slices;
  return static_cast<double>(slices) / secs;
}

// ---------------------------------------------------------------------------
// JSON out + baseline regression gate
// ---------------------------------------------------------------------------

/// Extracts `"key": <number>` from a flat JSON file; returns NaN if absent.
double jsonNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nan("");
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  std::map<std::string, double> results;

  std::printf("engine event soup (calendar queue)\n");
  const int soup_nodes[] = {32, 128, 512};
  for (const int n : soup_nodes) {
    const long long slices = 160000 / n;  // ~1.1M events per size
    std::uint64_t events = 0;
    const double eps = soupEventsPerSec(n, slices, &events);
    results["events_per_sec_n" + std::to_string(n)] = eps;
    std::printf("  n=%-4d %9.2f M events/s  (%llu events)\n", n, eps / 1e6,
                static_cast<unsigned long long>(events));
  }

  results["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());

  std::printf("MSM matcher (envelope index vs quadratic reference)\n");
  {
    std::uint64_t matched = 0;
    const double mps = indexMatchesPerSec(makeMatchSoup(60000, 7), &matched);
    results["matches_per_sec_index"] = mps;
    std::printf("  index      %9.2f M matches/s (%llu matched of 60000)\n",
                mps / 1e6, static_cast<unsigned long long>(matched));
    const double qps = quadraticMatchesPerSec(makeMatchSoup(4000, 7));
    results["matches_per_sec_quadratic"] = qps;
    std::printf("  quadratic  %9.2f M matches/s (4000-descriptor soup)\n",
                qps / 1e6);
  }

  // Slice rate is measured warmed, interleaved and best-of-N: an untimed
  // warmup per configuration, then flat and tree runs alternating within
  // each rep so both see the same cache/allocator state, keeping the best
  // rep per row.  The old single cold run was fiber-baton-bound and could
  // swing 2x with machine load.
  constexpr int kSliceReps = 3;
  constexpr int kTreeFanout = 32;
  std::printf("BCS-MPI runtime slice rate (sparse exchange + 250ms compute; "
              "warmed, interleaved best-of-%d)\n", kSliceReps);
  for (const int n : soup_nodes) {
    const bool tree_row = n == 512;  // the gated flat-vs-tree comparison
    runtimeSlicesPerSec(n, 0);  // warmup, untimed
    if (tree_row) runtimeSlicesPerSec(n, kTreeFanout);  // warmup, untimed
    double flat_best = 0, tree_best = 0;
    std::uint64_t flat_slices = 0, tree_slices = 0;
    for (int rep = 0; rep < kSliceReps; ++rep) {
      flat_best = std::max(flat_best,
                           runtimeSlicesPerSec(n, 0, &flat_slices));
      if (tree_row) {
        tree_best = std::max(
            tree_best, runtimeSlicesPerSec(n, kTreeFanout, &tree_slices));
      }
    }
    results["slices_per_sec_n" + std::to_string(n)] = flat_best;
    std::printf("  n=%-4d flat    %9.1f slices/s (%llu slices simulated)\n",
                n, flat_best, static_cast<unsigned long long>(flat_slices));
    if (tree_row) {
      results["tree_slices_per_sec_n" + std::to_string(n)] = tree_best;
      results["tree_speedup_n" + std::to_string(n)] = tree_best / flat_best;
      std::printf("  n=%-4d tree    %9.1f slices/s (fanout %d, %.2fx flat)\n",
                  n, tree_best, kTreeFanout, tree_best / flat_best);
    }
  }
  // Beyond 512 nodes a flat run is minutes of wall clock — the point of the
  // tree — so the scaling rows are tree-only.
  for (const int n : {1024, 2048}) {
    runtimeSlicesPerSec(n, kTreeFanout);  // warmup, untimed
    double best = 0;
    std::uint64_t slices = 0;
    for (int rep = 0; rep < kSliceReps; ++rep) {
      best = std::max(best, runtimeSlicesPerSec(n, kTreeFanout, &slices));
    }
    results["tree_slices_per_sec_n" + std::to_string(n)] = best;
    std::printf("  n=%-4d tree    %9.1f slices/s (fanout %d, %llu slices "
                "simulated)\n", n, best, kTreeFanout,
                static_cast<unsigned long long>(slices));
  }

  if (out_path != nullptr) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"engine\"";
    for (const auto& [key, value] : results) {
      json << ",\n  \"" << key << "\": " << value;
    }
    json << "\n}\n";
    std::ofstream f(out_path);
    f << json.str();
    std::printf("wrote %s\n", out_path);
  }

  if (baseline_path != nullptr) {
    std::ifstream f(baseline_path);
    if (!f) {
      std::printf("baseline %s missing; skipping regression gate\n",
                  baseline_path);
      return 0;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    const std::string base = buf.str();
    // Wall-clock throughput on shared CI machines is noisy; only a >30%
    // drop on an engine events/sec key — or on slices_per_sec_n512, now
    // that the warmed best-of-3 protocol and the ~500-slice run give it a
    // stable timed region — fails the gate.  The matcher and remaining
    // runtime-slice keys are tracked for the trajectory but not gated.
    int failures = 0;
    for (const auto& [key, value] : results) {
      if (key.rfind("events_per_sec", 0) != 0 &&
          key != "slices_per_sec_n512") {
        continue;
      }
      const double ref = jsonNumber(base, key);
      if (!(ref > 0)) continue;  // key absent in the baseline
      if (value < 0.70 * ref) {
        std::printf("REGRESSION %s: %.3g vs baseline %.3g (-%.0f%%)\n",
                    key.c_str(), value, ref, (1 - value / ref) * 100);
        ++failures;
      }
    }
    // Hierarchical control-plane floor: the strobe tree must keep the
    // 512-node sparse job at least 4x the flat slice rate.  A ratio of two
    // single-threaded wall-clock runs of the same workload, so no
    // hardware-thread waiver applies.
    const double tree_spd = results["tree_speedup_n512"];
    if (tree_spd < 4.0) {
      std::printf("REGRESSION tree_speedup_n512: %.2fx below the 4.0x "
                  "floor\n", tree_spd);
      ++failures;
    }
    if (failures > 0) return 1;
    std::printf("regression gate: ok (threshold -30%% vs %s, tree speedup "
                "floor 4.0x)\n", baseline_path);
  }
  return 0;
}
