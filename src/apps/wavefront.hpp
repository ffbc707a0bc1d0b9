#pragma once

// Generic 2D wavefront (pipelined sweep) engine.
//
// SWEEP3D — "the core of a widely used method of solving the Boltzmann
// transport equation" (§5.4) — and the NPB LU solver both follow this
// pattern: processes form a 2D grid; a sweep starts at one corner and
// ripples diagonally; within a sweep each process handles `blocks`
// independent k-blocks (pipelined angles), receiving boundary data from two
// upstream neighbours and forwarding downstream after computing.
//
// Two communication styles, matching the paper's experiment:
//   * blocking  — MPI_Send/MPI_Recv per block, the original SWEEP3D style
//     that loses ~30% under BCS-MPI (every blocking call aligns to the
//     slice grid);
//   * non-blocking — the paper's <50-line rewrite: pre-posted MPI_Irecv,
//     MPI_Isend downstream, MPI_Waitall at sweep end.  Transfers of block
//     b+1 overlap the computation of block b, hiding the slice latency.

#include <cstddef>
#include <cstdint>

#include "mpi/comm.hpp"
#include "sim/time.hpp"

namespace bcs::apps {

struct WavefrontConfig {
  int px = 0;  ///< process grid (0 = choose near-square factorization)
  int py = 0;
  int sweeps = 8;    ///< corner-alternating sweeps per iteration (octants)
  int iterations = 1;
  int blocks = 8;    ///< pipelined k-blocks per sweep
  sim::Duration block_compute = sim::usec(437);  ///< 3.5 ms / 8 blocks
  std::size_t message_bytes = 2048;
  bool blocking = true;
};

/// Near-square factorization helper (largest divisor pair).
void gridShape(int nprocs, int& px, int& py);

/// Deterministic boundary byte `i` sent by `from_rank` for (sweep, block):
/// the same on sender and receiver, so the receiver-side checksum is
/// comparable across MPI implementations.
std::uint8_t payloadByte(int from_rank, int sweep, int block, std::size_t i);

/// Writes a block's two outgoing boundary buffers: east[i] is
/// payloadByte(rank, sweep, block, i) and south[i] the same at i + 1.
void fillBoundaries(int rank, int sweep, int block, std::uint8_t* east,
                    std::uint8_t* south, std::size_t bytes);

/// Runs the wavefront; returns a checksum over all received boundary data
/// (bitwise identical across MPI implementations — used for validation).
double wavefront(mpi::Comm& comm, const WavefrontConfig& cfg);

/// SWEEP3D skeleton: fine-grained wavefront, ~3.5 ms per compute step
/// (§5.4), blocking or non-blocking flavour.
struct Sweep3dConfig {
  int time_steps = 10;  ///< outer (source-iteration) steps
  int sweeps_per_step = 4;  ///< corner pairs (octants grouped per axis)
  int blocks = 8;       ///< pipelined k-blocks (angle batches) per sweep
  /// Compute per wavefront step — "each compute step takes ~3.5 ms" and is
  /// surrounded by the four neighbour messages (§5.4).
  sim::Duration step_compute = sim::msec(3.5);
  std::size_t message_bytes = 2560;
  bool blocking = true;
};
double sweep3d(mpi::Comm& comm, const Sweep3dConfig& cfg);

/// NPB LU skeleton: SSOR iterations, each a forward + backward wavefront
/// with medium-grained blocks and blocking communication (§5.3: "several
/// consecutive blocking calls inside a loop").
struct LuConfig {
  int iterations = 40;
  int blocks = 6;
  sim::Duration block_compute = sim::msec(12);
  std::size_t message_bytes = 4096;
};
double nasLU(mpi::Comm& comm, const LuConfig& cfg);

}  // namespace bcs::apps
