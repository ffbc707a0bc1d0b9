// Slice-boundary checkpoint/restore (src/snapshot, DESIGN.md §8).
//
// The contract under test: capture() at a slice boundary is pure
// observation, and restore() into a *fresh process-equivalent stack*
// continues byte-identically — the crash-and-restore drill asserts
//
//   prefix(B, len@capture) + C  ==  A
//
// where A is the uninterrupted run, B the checkpointed run killed mid-
// flight, and C the restored continuation.  Negative paths (truncation,
// corruption, version/fingerprint skew) must fail as structured
// SnapshotErrors, never as UB — this test runs under the sanitize preset
// (label `ckpt`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/checkpoint.hpp"
#include "snapshot/error.hpp"
#include "snapshot/format.hpp"
#include "snapshot/scenario.hpp"
#include "snapshot/state_io.hpp"
#include "snapshot/wire.hpp"

namespace {

using namespace bcs;
using snapshot::ScenarioSpec;
using snapshot::Simulation;
using snapshot::SnapshotError;

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(SnapshotFormat, RoundTripsSections) {
  snapshot::SnapshotWriter w;
  const std::string alpha(10000, 'a');
  w.addSection("alpha", alpha);
  w.addSection("beta", std::string("\x00\x01\x02 binary", 10));
  const std::vector<std::uint8_t> blob = w.finish(0xfeedfacedeadbeefull);

  snapshot::SnapshotReader r(blob);
  EXPECT_EQ(r.fingerprint(), 0xfeedfacedeadbeefull);
  ASSERT_EQ(r.sections().size(), 2u);
  EXPECT_TRUE(r.hasSection("alpha"));
  EXPECT_TRUE(r.hasSection("beta"));
  EXPECT_FALSE(r.hasSection("gamma"));
  EXPECT_EQ(r.section("alpha"), alpha);
  EXPECT_EQ(r.section("beta"), std::string("\x00\x01\x02 binary", 10));
  // Repetitive payloads actually compress on disk.
  EXPECT_LT(r.sections()[0].comp_size, r.sections()[0].raw_size / 4);
}

TEST(SnapshotFormat, RejectsBadMagic) {
  snapshot::SnapshotWriter w;
  w.addSection("s", "payload");
  std::vector<std::uint8_t> blob = w.finish(1);
  blob[0] ^= 0xff;
  try {
    snapshot::SnapshotReader r(blob);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(SnapshotFormat, RejectsVersionSkew) {
  snapshot::SnapshotWriter w;
  w.addSection("s", "payload");
  std::vector<std::uint8_t> blob = w.finish(1);
  blob[4] = 9;  // format version lives right after the 4-byte magic
  try {
    snapshot::SnapshotReader r(blob);
    FAIL() << "version skew accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotFormat, RejectsTruncation) {
  snapshot::SnapshotWriter w;
  w.addSection("s", std::string(5000, 'q'));
  const std::vector<std::uint8_t> blob = w.finish(1);
  // Every prefix must be rejected loudly — header-level cuts and
  // payload-level cuts alike (ASan/UBSan guard the bounds checks).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{11}, std::size_t{30},
        blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(snapshot::SnapshotReader r(cut), SnapshotError)
        << "accepted a " << keep << "-byte prefix";
  }
}

TEST(SnapshotFormat, RejectsFlippedPayloadBit) {
  snapshot::SnapshotWriter w;
  w.addSection("s", std::string(5000, 'q'));
  std::vector<std::uint8_t> blob = w.finish(1);
  blob.back() ^= 0x01;  // payload corruption -> per-section CRC mismatch
  snapshot::SnapshotReader r(blob);  // table itself is intact
  try {
    (void)r.section("s");
    FAIL() << "corrupted payload accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "s");
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Capture guards and restore preconditions
// ---------------------------------------------------------------------------

TEST(SnapshotCapture, RefusesLiveFibers) {
  Simulation sim = snapshot::build(snapshot::ckptRing());
  sim.cluster->spawn(0, "fiber", [](sim::Process& p) { p.compute(100); });
  try {
    (void)snapshot::capture(sim);
    FAIL() << "captured a simulation with process fibers";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "capture");
    EXPECT_NE(std::string(e.what()).find("fiber"), std::string::npos);
  }
}

TEST(SnapshotRestore, RefusesFingerprintMismatch) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 2;
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink(
      [&b, &blob](std::uint64_t) { blob = snapshot::capture(b); });
  b.cluster->run(sim::msec(2));
  ASSERT_FALSE(blob.empty());

  ScenarioSpec other = spec;
  other.cluster.num_compute_nodes = 9;  // machine shape differs
  try {
    (void)snapshot::restore(other, blob);
    FAIL() << "restored into a different machine shape";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }

  // A FaultPlan difference is NOT a fingerprint mismatch (branching replay).
  ScenarioSpec branch = spec;
  branch.cluster.faults.crashNode(3, sim::msec(10));
  EXPECT_NO_THROW({ Simulation c = snapshot::restore(branch, blob); });
}

TEST(SnapshotRestore, RejectsCorruptedBlobEndToEnd) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 2;
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink(
      [&b, &blob](std::uint64_t) { blob = snapshot::capture(b); });
  b.cluster->run(sim::msec(2));
  ASSERT_FALSE(blob.empty());

  std::vector<std::uint8_t> corrupt = blob;
  corrupt[corrupt.size() - 2] ^= 0x10;
  EXPECT_THROW((void)snapshot::restore(spec, corrupt), SnapshotError);

  std::vector<std::uint8_t> cut(blob.begin(),
                                blob.begin() + static_cast<long>(40));
  EXPECT_THROW((void)snapshot::restore(spec, cut), SnapshotError);
}

/// Re-encodes `blob` with its engine section's key-counter layout replaced:
/// `nshards` per-shard counters (the real counter first, then 1s) and the
/// given trailing cross-shard counter.  Every other section is copied as is.
std::vector<std::uint8_t> withEngineShards(
    const std::vector<std::uint8_t>& blob, std::uint32_t nshards,
    std::uint64_t trailing) {
  const snapshot::SnapshotReader r(blob);
  snapshot::SnapshotWriter w;
  for (const snapshot::SectionInfo& info : r.sections()) {
    const std::string raw = r.section(info.name);
    if (info.name != "engine") {
      w.addSection(info.name, raw);
      continue;
    }
    snapshot::Decoder d(raw, "engine");
    snapshot::Encoder e;
    e.i64(d.i64());  // clock
    EXPECT_EQ(d.u32(), 1u);  // a serial run writes one shard
    e.u32(nshards);
    e.u64(d.u64());  // key counter
    for (std::uint32_t s = 1; s < nshards; ++s) e.u64(1);
    EXPECT_EQ(d.u64(), 1u);  // and a trailing counter of 1
    e.u64(trailing);
    for (int i = 0; i < 3; ++i) e.u64(d.u64());  // executed/cancelled/dropped
    d.expectEnd();
    w.addSection(info.name, e.data());
  }
  return w.finish(r.fingerprint());
}

TEST(SnapshotRestore, RejectsShardedEngineSection) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 2;
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink(
      [&b, &blob](std::uint64_t) { blob = snapshot::capture(b); });
  b.cluster->run(sim::msec(2));
  ASSERT_FALSE(blob.empty());

  // The re-encoding itself is faithful: one shard and a trailing counter
  // of 1 give back the original bytes.
  EXPECT_EQ(withEngineShards(blob, 1, 1), blob);
  for (const auto& [nshards, trailing] :
       {std::pair<std::uint32_t, std::uint64_t>{2, 1}, {1, 7}}) {
    try {
      (void)snapshot::restore(spec, withEngineShards(blob, nshards, trailing));
      FAIL() << "restored an engine section with " << nshards
             << " shard(s) and trailing counter " << trailing;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "engine");
    }
  }
}

/// Re-encodes `blob` with section `name`'s payload passed through `patch`;
/// every other section is copied as is.
std::vector<std::uint8_t> withPatchedSection(
    const std::vector<std::uint8_t>& blob, const std::string& name,
    void (*patch)(std::string& raw)) {
  const snapshot::SnapshotReader r(blob);
  snapshot::SnapshotWriter w;
  for (const snapshot::SectionInfo& info : r.sections()) {
    std::string raw = r.section(info.name);
    if (info.name == name) patch(raw);
    w.addSection(info.name, raw);
  }
  return w.finish(r.fingerprint());
}

// The checks only a restore runs sit beside the shared field lists; each
// still refuses a well-formed blob that disagrees with the fresh build, and
// names the section it found the disagreement in.
TEST(SnapshotRestore, LoadSideChecksNameTheirSection) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 2;
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink([&b, &blob](std::uint64_t) {
    if (blob.empty()) blob = snapshot::capture(b);
  });
  b.cluster->run(sim::msec(2));
  ASSERT_FALSE(blob.empty());

  struct Case {
    const char* section;
    const char* reason;
    void (*patch)(std::string& raw);
  };
  const Case cases[] = {
      // meta ends with the STORM and verifier presence flags.
      {"meta", "STORM", [](std::string& raw) { raw[raw.size() - 2] ^= 1; }},
      {"meta", "verifier", [](std::string& raw) { raw[raw.size() - 1] ^= 1; }},
      // engine opens with the clock, which must equal meta's.
      {"engine", "clock", [](std::string& raw) { raw[0] ^= 1; }},
      // core.runtime and workload open with a count the build fixes.
      {"core.runtime", "count mismatch",
       [](std::string& raw) { raw[0] ^= 1; }},
      {"workload", "rank count mismatch", [](std::string& raw) { raw[0] ^= 1; }},
      // buffers: u32 count, then buffer 0's u32 id and u64 size.
      {"buffers", "shape mismatch", [](std::string& raw) { raw[8] ^= 1; }},
  };
  for (const Case& tc : cases) {
    try {
      (void)snapshot::restore(spec, withPatchedSection(blob, tc.section,
                                                       tc.patch));
      FAIL() << "restored a blob with a patched " << tc.section;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), tc.section);
      EXPECT_NE(e.reason().find(tc.reason), std::string::npos) << e.what();
    }
  }
  // The unpatched blob restores.
  EXPECT_NO_THROW({ Simulation c = snapshot::restore(spec, blob); });
}

// ---------------------------------------------------------------------------
// Crash-and-restore drills
// ---------------------------------------------------------------------------

struct DrillCase {
  const char* name;
  ScenarioSpec (*make)(bool verify);
  bool verify;
  std::uint64_t every;     ///< checkpoint_every_slices
  sim::SimTime kill;       ///< when the checkpointed run is killed
  sim::SimTime end;        ///< horizon for bounded runs; 0 = run to drain
};

void runUntil(Simulation& sim, sim::SimTime end) {
  if (end > 0) {
    sim.cluster->run(end);
  } else {
    sim.cluster->run();
  }
}

/// Every counter except the checkpoint bookkeeping itself: A never captures
/// (no sink installed), so checkpoints_taken/restores legitimately differ.
void expectStatsMatch(const Simulation& a, const Simulation& c) {
  const bcsmpi::RuntimeStats& sa = a.runtime->stats();
  const bcsmpi::RuntimeStats& sc = c.runtime->stats();
  EXPECT_EQ(sa.slices, sc.slices);
  EXPECT_EQ(sa.microstrobes, sc.microstrobes);
  EXPECT_EQ(sa.descriptors_exchanged, sc.descriptors_exchanged);
  EXPECT_EQ(sa.matches, sc.matches);
  EXPECT_EQ(sa.chunks_transferred, sc.chunks_transferred);
  EXPECT_EQ(sa.collectives_scheduled, sc.collectives_scheduled);
  EXPECT_EQ(sa.slice_overruns, sc.slice_overruns);
  EXPECT_EQ(sa.retransmits, sc.retransmits);
  EXPECT_EQ(sa.requests_failed, sc.requests_failed);
  EXPECT_EQ(sa.evictions, sc.evictions);
  EXPECT_EQ(sa.recovery_slices, sc.recovery_slices);
  EXPECT_EQ(sa.watchdog_fires, sc.watchdog_fires);
  EXPECT_EQ(sa.elections, sc.elections);
  EXPECT_EQ(sa.rejoins, sc.rejoins);
  EXPECT_EQ(sa.tree_levels, sc.tree_levels);
  EXPECT_EQ(sa.coalesced_acks, sc.coalesced_acks);
  EXPECT_EQ(sa.fanout_msgs_per_slice, sc.fanout_msgs_per_slice);

  const net::FabricStats fa = a.cluster->fabric().stats();
  const net::FabricStats fc = c.cluster->fabric().stats();
  EXPECT_EQ(fa.unicasts, fc.unicasts);
  EXPECT_EQ(fa.multicasts, fc.multicasts);
  EXPECT_EQ(fa.conditionals, fc.conditionals);
  EXPECT_EQ(fa.payload_bytes, fc.payload_bytes);
  EXPECT_EQ(fa.drops, fc.drops);
  EXPECT_EQ(fa.failed_sends, fc.failed_sends);
  EXPECT_EQ(fa.suppressed_deliveries, fc.suppressed_deliveries);
  EXPECT_EQ(fa.suppressed_conditionals, fc.suppressed_conditionals);

  const sim::FaultStats& ja = a.cluster->faults()->stats();
  const sim::FaultStats& jc = c.cluster->faults()->stats();
  EXPECT_EQ(ja.drops, jc.drops);
  EXPECT_EQ(ja.degrades, jc.degrades);
  EXPECT_EQ(ja.forced_down, jc.forced_down);
}

class SnapshotDrill : public ::testing::TestWithParam<DrillCase> {};

TEST_P(SnapshotDrill, RestoredRunContinuesByteIdentically) {
  const DrillCase& tc = GetParam();
  ScenarioSpec spec = tc.make(tc.verify);
  spec.mpi.checkpoint_every_slices = tc.every;

  // A — the uninterrupted reference (no sink; the periodic hook is inert).
  Simulation a = snapshot::build(spec);
  runUntil(a, tc.end);
  const std::string a_dump = a.cluster->trace().dump();

  // B — checkpointed, then killed mid-flight.
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  std::uint64_t blob_slice = 0;
  b.runtime->setSnapshotSink([&b, &blob, &blob_slice](std::uint64_t slice) {
    blob = snapshot::capture(b);
    blob_slice = slice;
  });
  b.cluster->run(tc.kill);
  ASSERT_FALSE(blob.empty()) << "no checkpoint before the kill point";
  EXPECT_GT(b.runtime->stats().checkpoints_taken, 0u);
  const std::string b_dump = b.cluster->trace().dump();
  const std::uint64_t prefix = snapshot::traceDumpBytesAt(blob);
  ASSERT_LE(prefix, b_dump.size());
  ASSERT_LE(prefix, a_dump.size());
  // The sink is pure observation: B's trace up to the capture instant is
  // byte-identical to the sink-less A's.
  ASSERT_EQ(b_dump.substr(0, static_cast<std::size_t>(prefix)),
            a_dump.substr(0, static_cast<std::size_t>(prefix)));

  // C — a fresh stack restored from the blob, run to the same horizon.
  Simulation c = snapshot::restore(spec, blob);
  EXPECT_EQ(c.runtime->stats().restores, 1u);
  // The boundary turnover (++slice_index_ etc.) replays as the first event
  // of the restored run, so before run() the index is still the captured one.
  EXPECT_EQ(c.runtime->sliceIndex(), blob_slice);
  runUntil(c, tc.end);

  const std::string spliced = b_dump.substr(
      0, static_cast<std::size_t>(prefix)) + c.cluster->trace().dump();
  if (spliced != a_dump) {
    // Locate the divergence instead of dumping two multi-MB strings.
    std::size_t i = 0;
    const std::size_t n = std::min(spliced.size(), a_dump.size());
    while (i < n && spliced[i] == a_dump[i]) ++i;
    const std::size_t from = i < 120 ? 0 : i - 120;
    FAIL() << tc.name << ": restored continuation diverges at byte " << i
           << "\n  uninterrupted: ...\n"
           << a_dump.substr(from, 240) << "\n  restored: ...\n"
           << spliced.substr(from, 240);
  }

  expectStatsMatch(a, c);
  EXPECT_EQ(a.workload->dataDigest(), c.workload->dataDigest());
  EXPECT_EQ(a.workload->finishedRanks(), c.workload->finishedRanks());
  if (tc.verify) {
    ASSERT_NE(a.runtime->verifier(), nullptr);
    ASSERT_NE(c.runtime->verifier(), nullptr);
    EXPECT_EQ(a.runtime->verifier()->report().render(),
              c.runtime->verifier()->report().render());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SnapshotDrill,
    ::testing::Values(
        DrillCase{"ring", &snapshot::ckptRing, false, 4, sim::msec(3), 0},
        DrillCase{"ring_verify", &snapshot::ckptRing, true, 4, sim::msec(3),
                  0},
        DrillCase{"soup", &snapshot::ckptSoup, false, 8, sim::msec(12),
                  sim::msec(30)},
        DrillCase{"soup_verify", &snapshot::ckptSoup, true, 8, sim::msec(12),
                  sim::msec(30)},
        DrillCase{"tree", &snapshot::ckptTree, false, 4, sim::msec(3), 0},
        DrillCase{"tree_verify", &snapshot::ckptTree, true, 4, sim::msec(3),
                  0}),
    [](const auto& info) { return std::string(info.param.name); });

// The periodic sink must not perturb the run it observes, end to end.
TEST(SnapshotPolicy, SinkIsPureObservation) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 4;

  Simulation plain = snapshot::build(spec);
  plain.cluster->run();

  Simulation observed = snapshot::build(spec);
  std::uint64_t captures = 0;
  observed.runtime->setSnapshotSink([&observed, &captures](std::uint64_t) {
    (void)snapshot::capture(observed);
    ++captures;
  });
  observed.cluster->run();

  EXPECT_GT(captures, 2u);
  EXPECT_EQ(observed.runtime->stats().checkpoints_taken, captures);
  EXPECT_EQ(plain.cluster->trace().dump(), observed.cluster->trace().dump());
  EXPECT_EQ(plain.workload->dataDigest(), observed.workload->dataDigest());
}

// ---------------------------------------------------------------------------
// Field lists: capture and restore walk the same fields, and the bytes hold
// ---------------------------------------------------------------------------

/// Number of byte positions at which `x` and `y` differ; a length mismatch
/// counts every byte of the longer one.
std::size_t differingBytes(const std::string& x, const std::string& y) {
  if (x.size() != y.size()) return std::max(x.size(), y.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) n += x[i] != y[i];
  return n;
}

// Restoring a capture and capturing again before running gives back every
// section except three known differences: `meta` (the restored trace starts
// empty), `engine` (re-arming the timers drew event keys) and one byte of
// `runtime` (RuntimeStats::restores goes from 0 to 1).  A field that only
// one side of the serializer handles breaks this.
TEST(SnapshotFields, CaptureAfterRestoreGivesBackTheSameSections) {
  struct Case {
    const char* name;
    ScenarioSpec (*make)(bool verify);
    sim::SimTime end;
  };
  for (const Case& tc : {Case{"ring", &snapshot::ckptRing, 0},
                         Case{"soup", &snapshot::ckptSoup, sim::msec(30)},
                         Case{"tree", &snapshot::ckptTree, 0}}) {
    for (const bool verify : {false, true}) {
      SCOPED_TRACE(std::string(tc.name) + (verify ? "_verify" : ""));
      ScenarioSpec spec = tc.make(verify);
      spec.mpi.checkpoint_every_slices = 2;
      Simulation b = snapshot::build(spec);
      std::vector<std::vector<std::uint8_t>> blobs;
      b.runtime->setSnapshotSink([&b, &blobs](std::uint64_t) {
        blobs.push_back(snapshot::capture(b));
      });
      runUntil(b, tc.end);
      ASSERT_GT(blobs.size(), 2u);

      for (std::size_t k = 0; k < blobs.size(); ++k) {
        Simulation c = snapshot::restore(spec, blobs[k]);
        const snapshot::SnapshotReader before(blobs[k]);
        const snapshot::SnapshotReader after(snapshot::capture(c));
        ASSERT_EQ(before.sections().size(), after.sections().size());
        for (std::size_t s = 0; s < before.sections().size(); ++s) {
          const std::string& name = before.sections()[s].name;
          ASSERT_EQ(after.sections()[s].name, name);
          if (name == "meta" || name == "engine") continue;
          const std::size_t want = name == "runtime" ? 1 : 0;
          EXPECT_EQ(differingBytes(before.section(name), after.section(name)),
                    want)
              << "capture " << k << ", section " << name;
        }
      }
    }
  }
}

// The snapshot format holds still: the section table (name, raw size, CRC-32
// of the stored payload) of the first capture at slice 4 of the three
// verify-on scenarios.  A deliberate change to the state layout (a field
// added, dropped or re-typed in a StateIO field list, or a new section)
// changes these bytes; such a change updates this table, with a CHANGES.md
// line saying why.  A change that moves them by accident breaks every saved
// snapshot.
TEST(SnapshotFields, SectionTableIsPinned) {
  struct Row {
    const char* name;
    std::uint64_t raw_size;
    std::uint32_t crc;
  };
  struct Case {
    const char* name;
    ScenarioSpec (*make)(bool verify);
    std::vector<Row> rows;
  };
  const Case cases[] = {
      {"ring",
       &snapshot::ckptRing,
       {{"meta", 34, 0x78e116a7u},
        {"engine", 52, 0x6bb7dcdeu},
        {"rng", 32, 0xb1ce89beu},
        {"fault", 60, 0xcaa11f99u},
        {"fabric", 212, 0xa378a9e1u},
        {"core.runtime", 392, 0xe5d80b26u},
        {"runtime", 1264, 0xa63ad718u},
        {"verify", 97, 0x07f50b15u},
        {"workload", 264, 0x16e7ff5fu},
        {"buffers", 8388, 0x7dd570d0u}}},
      {"soup",
       &snapshot::ckptSoup,
       {{"meta", 34, 0xec163c8au},
        {"engine", 52, 0xfb938953u},
        {"rng", 32, 0x0e267e9cu},
        {"fault", 60, 0xf23b1c03u},
        {"fabric", 596, 0x39b98888u},
        {"core.runtime", 1352, 0x6e00040cu},
        {"runtime", 6089, 0xce5815b4u},
        {"core.storm", 544, 0x0bf60c42u},
        {"storm", 346, 0xaa9d6f85u},
        {"verify", 97, 0x82acfbf7u},
        {"workload", 1032, 0x0f9a8d37u},
        {"buffers", 17156, 0xb52c8366u}}},
      {"tree",
       &snapshot::ckptTree,
       {{"meta", 34, 0x4ed7d7bcu},
        {"engine", 52, 0x84598c9bu},
        {"rng", 32, 0x689ea870u},
        {"fault", 60, 0x953ff308u},
        {"fabric", 596, 0x99d7d2deu},
        {"core.runtime", 1352, 0x72db451eu},
        {"runtime", 6400, 0xd27c8c62u},
        {"verify", 97, 0x28a5337cu},
        {"workload", 1032, 0x6bfd5f9fu},
        {"buffers", 17156, 0xb6acebeau}}},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    ScenarioSpec spec = tc.make(/*verify=*/true);
    spec.mpi.checkpoint_every_slices = 4;
    Simulation b = snapshot::build(spec);
    std::vector<std::uint8_t> blob;
    b.runtime->setSnapshotSink([&b, &blob](std::uint64_t) {
      if (blob.empty()) blob = snapshot::capture(b);
    });
    b.cluster->run(sim::msec(3));
    ASSERT_FALSE(blob.empty());

    const snapshot::SnapshotReader r(blob);
    ASSERT_EQ(r.sections().size(), tc.rows.size());
    for (std::size_t s = 0; s < tc.rows.size(); ++s) {
      const snapshot::SectionInfo& got = r.sections()[s];
      const Row& want = tc.rows[s];
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.raw_size, want.raw_size) << want.name;
      EXPECT_EQ(got.crc, want.crc) << want.name;
    }
  }
}

TEST(SnapshotFields, FabricStoresNoFreeTimeBeforeTheCapture) {
  // Every transfer a restored run issues starts at or after the capture
  // instant, where an earlier free-time reads like the instant itself, and
  // a replayed slice leaves earlier ones than a simulated slice does.  So
  // the fabric section stores the later of each free-time and the capture
  // instant (DESIGN.md §8).
  for (const auto make : {&snapshot::ckptRing, &snapshot::ckptTree}) {
    ScenarioSpec spec = make(/*verify=*/false);
    SCOPED_TRACE(spec.mpi.tree_fanout);
    spec.mpi.checkpoint_every_slices = 2;
    Simulation b = snapshot::build(spec);
    std::vector<std::vector<std::uint8_t>> blobs;
    b.runtime->setSnapshotSink([&b, &blobs](std::uint64_t) {
      blobs.push_back(snapshot::capture(b));
    });
    b.cluster->run(sim::msec(20));
    ASSERT_GT(blobs.size(), 5u);
    for (const std::vector<std::uint8_t>& blob : blobs) {
      const snapshot::SnapshotReader r(blob);
      const sim::SimTime now = snapshot::StateIO::readMeta(r).now;
      const std::string raw = r.section("fabric");
      snapshot::Decoder d(raw, "fabric");
      std::vector<std::pair<sim::SimTime, sim::SimTime>> endpoints(
          static_cast<std::size_t>(b.cluster->fabric().numNodes()));
      d.sameSize(endpoints, "endpoint",
                 [&d](auto& ep) { d(ep.first, ep.second); });
      for (const auto& [egress_free, ingress_free] : endpoints) {
        EXPECT_GE(egress_free, now);
        EXPECT_GE(ingress_free, now);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Branching what-if replay
// ---------------------------------------------------------------------------

TEST(SnapshotBranch, ForkedFaultPlansDivergeAfterTheSnapshot) {
  // One snapshot of the 32-node soup taken *before* node 13's crash lands,
  // forked into two futures: the original plan (13 dies at 6 ms) and a
  // what-if plan with the crash removed.  bcs-verify rides along on both.
  ScenarioSpec spec = snapshot::ckptSoup(/*verify=*/true);
  spec.mpi.checkpoint_every_slices = 8;  // slice 8 boundary = 4.2 ms < 6 ms

  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink([&b, &blob](std::uint64_t) {
    if (blob.empty()) blob = snapshot::capture(b);  // keep the first one
  });
  b.cluster->run(sim::msec(5));
  ASSERT_FALSE(blob.empty());

  Simulation with_crash = snapshot::restore(spec, blob);
  with_crash.cluster->run(sim::msec(30));

  ScenarioSpec what_if = spec;
  what_if.cluster.faults = sim::FaultPlan{};
  what_if.cluster.faults.dropRate(0.05);  // same loss, no crash
  Simulation no_crash = snapshot::restore(what_if, blob);
  no_crash.cluster->run(sim::msec(30));

  EXPECT_EQ(with_crash.runtime->stats().evictions, 1u);
  EXPECT_EQ(no_crash.runtime->stats().evictions, 0u);
  EXPECT_GT(with_crash.runtime->stats().requests_failed, 0u);
  EXPECT_NE(with_crash.cluster->trace().dump(),
            no_crash.cluster->trace().dump());
  EXPECT_NE(with_crash.workload->dataDigest(),
            no_crash.workload->dataDigest());
  // Only the crashed branch sees failures; the what-if branch stays clean
  // (5% drops are absorbed by retransmission, never surfaced as errors).
  EXPECT_EQ(no_crash.runtime->stats().requests_failed, 0u);
  EXPECT_GT(no_crash.runtime->stats().retransmits, 0u);
}

}  // namespace
