#pragma once

// Tunables of the BCS-MPI runtime (paper §4, §5.1).

#include <cstddef>

#include "sim/time.hpp"

namespace bcs::bcsmpi {

using sim::Duration;

struct BcsMpiConfig {
  /// Length of the global time slice.  The paper uses 500 us everywhere
  /// (§5.1); bench_ablation_timeslice sweeps this.
  Duration time_slice = sim::usec(500);

  /// Minimum durations of the two global-message-scheduling microphases.
  /// "In the current implementation, these two phases take approximately
  /// 125 us" (§4.3) — the floors model the fixed cost of strobing, FIFO
  /// draining and queue walks even on idle slices.
  Duration dem_floor = sim::usec(60);
  Duration msm_floor = sim::usec(65);

  /// How often the Strobe Sender re-issues its Compare-And-Write when
  /// polling for microphase completion.
  Duration strobe_poll_interval = sim::usec(5);

  /// Slice watchdog: a Strobe Receiver that hears no microstrobe for
  /// `watchdog_slices` × time_slice suspects the Strobe Sender died and
  /// enters the failover election (lowest-id live compute node promotes
  /// itself to backup Strobe Sender).  0 disables the watchdog.
  int watchdog_slices = 8;

  /// Back-off before a backup Strobe Sender candidate retries a failed
  /// epoch claim (the Compare-And-Write either lost to a concurrent claim
  /// or found part of the quorum down).
  Duration election_retry_interval = sim::usec(50);

  /// The BS/BR drain their shared-memory descriptor FIFOs this long after
  /// the DEM strobe arrives; descriptors posted inside the window (e.g. by
  /// a process the NM just restarted at the slice boundary) are still
  /// scheduled in the current slice, exactly like a FIFO read in the real
  /// NIC thread.  Must stay below dem_floor.
  Duration dem_drain_window = sim::usec(20);

  /// Cost for an application process to post a descriptor into the NIC
  /// shared-memory FIFO (no system call, §4.5).
  Duration post_overhead = sim::usec(0.6);

  /// Wire size of one communication descriptor.
  std::size_t descriptor_bytes = 128;

  /// Bound on per-descriptor retransmissions after network loss.  A
  /// descriptor that fails this many times has its request completed in
  /// error rather than retried forever (the slice-per-retry cadence makes
  /// runaway retry loops expensive and easy to bound).
  int max_descriptor_retries = 64;

  /// NIC-thread processing cost per descriptor (BS dispatch / BR intake).
  Duration nic_desc_processing = sim::usec(0.3);

  /// Wire size of one one-sided operation record inside a coalesced RMA
  /// batch descriptor (DESIGN.md §11).  Many small puts to one destination
  /// share a single descriptor_bytes header per slice; each op adds only
  /// this much plus its payload.
  std::size_t rma_op_bytes = 32;

  /// NIC-thread cost to apply one one-sided op to the target window during
  /// the MSM (bounds check + copy/add dispatch).
  Duration nic_rma_op_cost = sim::usec(0.4);

  /// BR cost to match one send/receive descriptor pair and build the
  /// matching descriptor.
  Duration nic_match_cost = sim::usec(0.8);

  /// Largest chunk of one message transferred in a single time slice; the
  /// BR splits bigger messages across consecutive slices (§4.3).
  std::size_t chunk_bytes = 64 * 1024;

  /// Per-node byte budget the BR may schedule into one point-to-point
  /// microphase (roughly bandwidth * transmission-phase length).
  std::size_t slice_byte_budget = 80 * 1024;

  /// Per-element cost of the Reduce Helper's softfloat arithmetic on the
  /// FPU-less NIC processor (§4.4).
  Duration nic_reduce_per_element = sim::usec(0.8);

  /// Bring-up cost of the BCS-MPI runtime system (NIC thread forking, NIC
  /// memory setup, STORM handshakes).  The paper's IS discussion (§5.3)
  /// attributes IS's ~10% slowdown on a ~12 s run largely to this.
  Duration runtime_init_overhead = sim::msec(800);

  /// Hierarchical Strobe-Sender tree (DESIGN.md §7).  0 = the paper's flat
  /// control plane: one Strobe Sender multicasts every microstrobe to every
  /// compute node and polls the full set with Compare-And-Write.  A positive
  /// value groups compute nodes into racks of `tree_fanout` consecutive
  /// indices; a rack-level SS relays each microstrobe to its members and
  /// coalesces their completions into one upward ack, so the root only
  /// touches O(racks) control messages per microphase instead of O(nodes).
  /// Flat mode is byte-identical to the pre-tree runtime (the goldens pin
  /// it); tree mode is replay-deterministic with its own goldens.
  int tree_fanout = 0;

  /// Round-robin gang scheduling of multiple jobs at slice granularity
  /// (§5.4, first mitigation option).
  bool gang_scheduling = false;

  /// Attach the dynamic protocol verifier (src/verify): collective-color
  /// divergence, truncated receives, wildcard-receive races, and a finalize
  /// audit of leaked descriptors/requests/retransmission state.  A pure
  /// observer — a clean run traces byte-identically with it on or off, and
  /// every hot-path hook is a single pointer null check when off.
  bool verify = false;

  /// Retention cap on verifier findings; the per-category counters keep
  /// counting past it (pathological runs stay bounded in memory).
  std::size_t verify_max_findings = 256;

  /// Periodic full-state checkpoint cadence (src/snapshot, DESIGN.md §8):
  /// when > 0 and a sink is installed via Runtime::setSnapshotSink, the sink
  /// fires at every Nth slice boundary — the paper's §6 claim made concrete:
  /// the boundary is globally consistent by construction, so the snapshot
  /// needs no marker algorithm or message draining.  0 = off.
  std::uint64_t checkpoint_every_slices = 0;
};

}  // namespace bcs::bcsmpi
