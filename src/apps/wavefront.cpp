#include "apps/wavefront.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace bcs::apps {

void gridShape(int nprocs, int& px, int& py) {
  px = 1;
  for (int d = 1; d * d <= nprocs; ++d) {
    if (nprocs % d == 0) px = d;
  }
  py = nprocs / px;
}

std::uint8_t payloadByte(int from_rank, int sweep, int block, std::size_t i) {
  return static_cast<std::uint8_t>(
      (static_cast<std::size_t>(from_rank) * 131 +
       static_cast<std::size_t>(sweep) * 17 +
       static_cast<std::size_t>(block) * 7 + i * 3) &
      0xFF);
}

void fillBoundaries(int rank, int sweep, int block, std::uint8_t* east,
                    std::uint8_t* south, std::size_t bytes) {
  // payloadByte(.., i) is (base + 3 i) mod 256, so consecutive bytes step
  // by 3 in uint8_t arithmetic and the south byte is the east byte plus 3.
  // Byte-wide state lets the compiler fill 16 bytes per vector lane group
  // instead of widening every index to 64 bits.
  std::uint8_t e = payloadByte(rank, sweep, block, 0);
  for (std::size_t i = 0; i < bytes; ++i) {
    east[i] = e;
    e = static_cast<std::uint8_t>(e + 3);
    south[i] = e;
  }
}

namespace {

struct GridPos {
  int x, y, px, py, rank;
  int at(int dx, int dy) const {
    const int nx = x + dx, ny = y + dy;
    if (nx < 0 || nx >= px || ny < 0 || ny >= py) return -1;
    return ny * px + nx;
  }
};

}  // namespace

double wavefront(mpi::Comm& comm, const WavefrontConfig& cfg) {
  int px = cfg.px, py = cfg.py;
  if (px <= 0 || py <= 0) gridShape(comm.size(), px, py);
  const GridPos pos{comm.rank() % px, comm.rank() / px, px, py, comm.rank()};

  double checksum = 0;
  std::vector<std::uint8_t> w_in(cfg.message_bytes), n_in(cfg.message_bytes);
  std::vector<std::uint8_t> e_out(cfg.message_bytes), s_out(cfg.message_bytes);

  for (int iter = 0; iter < cfg.iterations; ++iter) {
    for (int sweep = 0; sweep < cfg.sweeps; ++sweep) {
      // Alternate the sweep corner: even sweeps go NW->SE, odd SE->NW
      // (the upstream/downstream roles flip).
      const int dir = (sweep % 2 == 0) ? 1 : -1;
      const int up_w = pos.at(-dir, 0);
      const int up_n = pos.at(0, -dir);
      const int dn_e = pos.at(dir, 0);
      const int dn_s = pos.at(0, dir);
      const int tag_base = (iter * cfg.sweeps + sweep) * 4 * cfg.blocks;

      auto fill_out = [&](int block) {
        fillBoundaries(pos.rank, sweep, block, e_out.data(), s_out.data(),
                       cfg.message_bytes);
      };
      auto absorb = [&](const std::vector<std::uint8_t>& buf, int from,
                        int block, std::size_t shift) {
        if (from < 0) return;
        // Spot-check a few bytes into the checksum (cheap but sensitive).
        checksum += static_cast<double>(buf[0]) +
                    static_cast<double>(buf[cfg.message_bytes / 2]);
        if (buf[0] != payloadByte(from, sweep, block, shift)) {
          throw sim::SimError("wavefront: corrupted boundary data");
        }
      };

      if (cfg.blocking) {
        for (int b = 0; b < cfg.blocks; ++b) {
          const int tag = tag_base + 4 * b;
          if (up_w >= 0) comm.recv(w_in.data(), w_in.size(), up_w, tag);
          if (up_n >= 0) comm.recv(n_in.data(), n_in.size(), up_n, tag + 1);
          absorb(w_in, up_w, b, 0);
          absorb(n_in, up_n, b, 1);
          comm.compute(cfg.block_compute);
          fill_out(b);
          if (dn_e >= 0) comm.send(e_out.data(), e_out.size(), dn_e, tag);
          if (dn_s >= 0) comm.send(s_out.data(), s_out.size(), dn_s, tag + 1);
        }
      } else {
        // Non-blocking rewrite: pre-post all receives of the sweep, overlap
        // downstream sends with the next block's computation, wait for all
        // sends at sweep end.
        std::vector<std::vector<std::uint8_t>> w_bufs, n_bufs;
        std::vector<mpi::Request> w_reqs(static_cast<std::size_t>(cfg.blocks));
        std::vector<mpi::Request> n_reqs(static_cast<std::size_t>(cfg.blocks));
        w_bufs.resize(static_cast<std::size_t>(cfg.blocks));
        n_bufs.resize(static_cast<std::size_t>(cfg.blocks));
        for (int b = 0; b < cfg.blocks; ++b) {
          const int tag = tag_base + 4 * b;
          if (up_w >= 0) {
            w_bufs[static_cast<std::size_t>(b)].resize(cfg.message_bytes);
            w_reqs[static_cast<std::size_t>(b)] =
                comm.irecv(w_bufs[static_cast<std::size_t>(b)].data(),
                           cfg.message_bytes, up_w, tag);
          }
          if (up_n >= 0) {
            n_bufs[static_cast<std::size_t>(b)].resize(cfg.message_bytes);
            n_reqs[static_cast<std::size_t>(b)] =
                comm.irecv(n_bufs[static_cast<std::size_t>(b)].data(),
                           cfg.message_bytes, up_n, tag + 1);
          }
        }
        std::vector<mpi::Request> send_reqs;
        std::vector<std::vector<std::uint8_t>> e_bufs, s_bufs;
        e_bufs.resize(static_cast<std::size_t>(cfg.blocks));
        s_bufs.resize(static_cast<std::size_t>(cfg.blocks));
        for (int b = 0; b < cfg.blocks; ++b) {
          const int tag = tag_base + 4 * b;
          const auto bi = static_cast<std::size_t>(b);
          comm.wait(w_reqs[bi]);
          comm.wait(n_reqs[bi]);
          if (up_w >= 0) absorb(w_bufs[bi], up_w, b, 0);
          if (up_n >= 0) absorb(n_bufs[bi], up_n, b, 1);
          comm.compute(cfg.block_compute);
          fill_out(b);
          if (dn_e >= 0) {
            e_bufs[bi] = e_out;
            send_reqs.push_back(
                comm.isend(e_bufs[bi].data(), cfg.message_bytes, dn_e, tag));
          }
          if (dn_s >= 0) {
            s_bufs[bi] = s_out;
            send_reqs.push_back(
                comm.isend(s_bufs[bi].data(), cfg.message_bytes, dn_s,
                           tag + 1));
          }
        }
        comm.waitall(send_reqs);
      }
    }
  }
  return checksum;
}

double sweep3d(mpi::Comm& comm, const Sweep3dConfig& cfg) {
  WavefrontConfig w;
  w.sweeps = cfg.sweeps_per_step;
  w.iterations = cfg.time_steps;
  w.blocks = cfg.blocks;
  w.block_compute = cfg.step_compute;
  w.message_bytes = cfg.message_bytes;
  w.blocking = cfg.blocking;
  return wavefront(comm, w);
}

double nasLU(mpi::Comm& comm, const LuConfig& cfg) {
  // SSOR: forward sweep (lower triangular) + backward sweep per iteration,
  // always with blocking communication (the paper's point about LU).
  WavefrontConfig w;
  w.sweeps = 2;
  w.iterations = cfg.iterations;
  w.blocks = cfg.blocks;
  w.block_compute = cfg.block_compute;
  w.message_bytes = cfg.message_bytes;
  w.blocking = true;
  return wavefront(comm, w);
}

}  // namespace bcs::apps
