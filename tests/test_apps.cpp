// Application-skeleton tests: every workload must produce identical
// checksums under the baseline MPI and under BCS-MPI (same messages, same
// data), and the blocking/non-blocking variants must agree with each other.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "apps/nas.hpp"
#include "apps/synthetic.hpp"
#include "apps/wavefront.hpp"
#include "baseline/baseline.hpp"
#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::usec;

using AppFn = std::function<double(mpi::Comm&)>;

std::vector<double> runBaseline(int nprocs, const AppFn& app) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = nprocs;
  net::Cluster cluster(ccfg);
  baseline::BaselineConfig cfg;
  cfg.init_overhead = usec(10);
  std::vector<double> sums(static_cast<std::size_t>(nprocs));
  baseline::runJob(cluster, cfg, baseline::blockMapping(nprocs, nprocs, 1),
                   [&](mpi::Comm& c) {
                     sums[static_cast<std::size_t>(c.rank())] = app(c);
                   });
  return sums;
}

std::vector<double> runBcs(int nprocs, const AppFn& app) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = nprocs;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  std::vector<int> map(static_cast<std::size_t>(nprocs));
  std::iota(map.begin(), map.end(), 0);
  std::vector<double> sums(static_cast<std::size_t>(nprocs));
  bcsmpi::runJob(cluster, cfg, map, [&](mpi::Comm& c) {
    sums[static_cast<std::size_t>(c.rank())] = app(c);
  });
  return sums;
}

void expectSameChecksums(int nprocs, const AppFn& app, double tol = 1e-9) {
  const auto a = runBaseline(nprocs, app);
  const auto b = runBcs(nprocs, app);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "rank " << i;
  }
}

TEST(Apps, SyntheticBarrierRunsOnBothImplementations) {
  apps::SyntheticBarrierConfig cfg;
  cfg.granularity = msec(1);
  cfg.iterations = 5;
  const auto app = [cfg](mpi::Comm& c) {
    return static_cast<double>(apps::syntheticBarrier(c, cfg));
  };
  // No checksum here (returns elapsed); just require both to complete and
  // BCS to be slower but bounded.
  const auto base = runBaseline(6, app);
  const auto bcs_t = runBcs(6, app);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GT(base[i], 0);
    EXPECT_GT(bcs_t[i], base[i]);           // slices cost something
    EXPECT_LT(bcs_t[i], 3.0 * base[i]);     // ...but not everything
  }
}

TEST(Apps, SyntheticNeighborChecksOut) {
  apps::SyntheticNeighborConfig cfg;
  cfg.granularity = msec(1);
  cfg.iterations = 4;
  cfg.message_bytes = 2048;
  const auto app = [cfg](mpi::Comm& c) {
    return static_cast<double>(apps::syntheticNeighbor(c, cfg));
  };
  const auto base = runBaseline(6, app);
  const auto bcs_t = runBcs(6, app);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GT(base[i], 0);
    EXPECT_GT(bcs_t[i], 0);
  }
}

TEST(Apps, WavefrontBlockingChecksumMatchesAcrossImpls) {
  apps::WavefrontConfig cfg;
  cfg.sweeps = 2;
  cfg.iterations = 2;
  cfg.blocks = 3;
  cfg.block_compute = usec(300);
  cfg.message_bytes = 512;
  cfg.blocking = true;
  expectSameChecksums(6, [cfg](mpi::Comm& c) { return apps::wavefront(c, cfg); });
}

TEST(Apps, WavefrontNonBlockingMatchesBlockingChecksum) {
  apps::WavefrontConfig cfg;
  cfg.sweeps = 2;
  cfg.iterations = 1;
  cfg.blocks = 3;
  cfg.block_compute = usec(200);
  cfg.message_bytes = 512;
  cfg.blocking = true;
  auto blocking_cfg = cfg;
  cfg.blocking = false;
  const auto a = runBaseline(
      4, [blocking_cfg](mpi::Comm& c) { return apps::wavefront(c, blocking_cfg); });
  const auto b = runBaseline(
      4, [cfg](mpi::Comm& c) { return apps::wavefront(c, cfg); });
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Apps, Sweep3dBothFlavorsOnBcs) {
  apps::Sweep3dConfig cfg;
  cfg.time_steps = 2;
  cfg.sweeps_per_step = 2;
  cfg.blocks = 3;
  cfg.step_compute = msec(1);
  cfg.message_bytes = 1024;
  cfg.blocking = true;
  auto nb = cfg;
  nb.blocking = false;
  const auto blocking = runBcs(4, [cfg](mpi::Comm& c) { return apps::sweep3d(c, cfg); });
  const auto nonblocking =
      runBcs(4, [nb](mpi::Comm& c) { return apps::sweep3d(c, nb); });
  for (std::size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_DOUBLE_EQ(blocking[i], nonblocking[i]);
  }
}

TEST(Apps, NasISChecksumMatches) {
  apps::IsConfig cfg;
  cfg.iterations = 2;
  cfg.compute_per_iteration = msec(2);
  cfg.bytes_per_peer = 4096;
  expectSameChecksums(5, [cfg](mpi::Comm& c) { return apps::nasIS(c, cfg); });
}

TEST(Apps, NasEPChecksumMatches) {
  apps::EpConfig cfg;
  cfg.total_compute = msec(8);
  cfg.compute_chunks = 4;
  expectSameChecksums(6, [cfg](mpi::Comm& c) { return apps::nasEP(c, cfg); },
                      1e-9);
}

TEST(Apps, NasCGChecksumMatches) {
  apps::CgConfig cfg;
  cfg.iterations = 4;
  cfg.compute_per_iteration = msec(1);
  cfg.exchange_bytes = 2048;
  expectSameChecksums(8, [cfg](mpi::Comm& c) { return apps::nasCG(c, cfg); },
                      1e-9);
}

TEST(Apps, NasMGChecksumMatches) {
  apps::MgConfig cfg;
  cfg.cycles = 2;
  cfg.levels = 3;
  cfg.compute_top_level = msec(1);
  cfg.halo_top_bytes = 4096;
  expectSameChecksums(6, [cfg](mpi::Comm& c) { return apps::nasMG(c, cfg); });
}

TEST(Apps, NasLUChecksumMatches) {
  apps::LuConfig cfg;
  cfg.iterations = 2;
  cfg.blocks = 3;
  cfg.block_compute = usec(300);
  cfg.message_bytes = 1024;
  expectSameChecksums(6, [cfg](mpi::Comm& c) { return apps::nasLU(c, cfg); });
}

TEST(Apps, SageChecksumMatches) {
  apps::SageConfig cfg;
  cfg.steps = 3;
  cfg.compute_per_step = msec(2);
  cfg.halo_bytes = 8192;
  expectSameChecksums(6, [cfg](mpi::Comm& c) { return apps::sage(c, cfg); },
                      1e-9);
}

TEST(Apps, GridShapeFactorsNearSquare) {
  int px = 0, py = 0;
  apps::gridShape(62, px, py);
  EXPECT_EQ(px * py, 62);
  EXPECT_EQ(px, 2);
  apps::gridShape(64, px, py);
  EXPECT_EQ(px, 8);
  EXPECT_EQ(py, 8);
  apps::gridShape(7, px, py);
  EXPECT_EQ(px, 1);
  EXPECT_EQ(py, 7);
}

TEST(Apps, BoundaryFillMatchesThePerByteFormula) {
  // Every byte of both buffers, at lengths that are and are not multiples
  // of a 16-byte vector, from aligned and unaligned starts, against the
  // per-byte formula spelled out here.
  const auto formula = [](int rank, int sweep, int block, std::size_t i) {
    return static_cast<std::uint8_t>(
        (static_cast<std::size_t>(rank) * 131 +
         static_cast<std::size_t>(sweep) * 17 +
         static_cast<std::size_t>(block) * 7 + i * 3) &
        0xFF);
  };
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{85}, std::size_t{256},
        std::size_t{2048}, std::size_t{2560}, std::size_t{2561},
        std::size_t{4099}}) {
    for (const std::size_t skew : {std::size_t{0}, std::size_t{3}}) {
      std::vector<std::uint8_t> east(bytes + skew + 1, 0xA5);
      std::vector<std::uint8_t> south(bytes + skew + 1, 0x5A);
      for (const int rank : {0, 1, 61, 255, 1000}) {
        for (const int sweep : {0, 3}) {
          for (const int block : {0, 7}) {
            apps::fillBoundaries(rank, sweep, block, east.data() + skew,
                                 south.data() + skew, bytes);
            for (std::size_t i = 0; i < bytes; ++i) {
              ASSERT_EQ(east[skew + i], formula(rank, sweep, block, i))
                  << bytes << " bytes, byte " << i;
              ASSERT_EQ(south[skew + i], formula(rank, sweep, block, i + 1))
                  << bytes << " bytes, byte " << i;
              ASSERT_EQ(east[skew + i],
                        apps::payloadByte(rank, sweep, block, i));
            }
            // Nothing past the end is written.
            ASSERT_EQ(east[skew + bytes], 0xA5);
            ASSERT_EQ(south[skew + bytes], 0x5A);
          }
        }
      }
    }
  }
}

}  // namespace
