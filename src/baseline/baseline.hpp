#pragma once

// "Quadrics MPI"-style baseline: a latency-optimized, per-message MPI
// implementation in the spirit of MPICH 1.2.4 over qsnetlibs (the
// production library the paper compares BCS-MPI against in §5).
//
// Protocols:
//   * Eager for payloads <= eager_threshold: the sender copies the payload
//     and injects immediately; unexpected messages are buffered at the
//     receiver.  The send completes locally once injected.
//   * Rendezvous above the threshold: RTS -> (matching receive posted) ->
//     CTS -> zero-copy payload transfer.
//   * Collectives: hardware barrier and hardware-multicast broadcast (the
//     Elan3 features Quadrics MPI exploits), host-side binomial-tree reduce
//     (the PCI round trip the paper's NIC-side Reduce Helper avoids).
//
// Unlike BCS-MPI, the host CPU pays per-call software overheads (modelled
// as CPU work, so they contend with application computation), and nothing
// is globally scheduled — this is exactly the design point the paper
// contrasts with.
//
// Blocking contract used throughout this repository: every fiber-side wait
// is a predicate loop (`while (!done) proc.block()`), so a spurious
// Process::wake is always harmless.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/reduce_ops.hpp"
#include "mpi/types.hpp"
#include "net/cluster.hpp"
#include "sim/flat_map.hpp"
#include "sim/process.hpp"
#include "sim/slots.hpp"

namespace bcs::baseline {

using sim::Duration;
using sim::SimTime;

struct BaselineConfig {
  std::size_t eager_threshold = 16 * 1024;

  // Host software path costs (consume CPU, like the real MPICH layers).
  Duration send_overhead = sim::usec(1.0);
  Duration recv_overhead = sim::usec(0.9);
  Duration rendezvous_overhead = sim::usec(1.5);  ///< extra RTS/CTS handling
  Duration collective_overhead = sim::usec(1.0);  ///< per collective call

  std::size_t control_message_bytes = 64;  ///< RTS/CTS wire size

  /// Latency of the Elan3 hardware barrier once all ranks have arrived.
  Duration hw_barrier_latency = sim::usec(10);

  /// MPI_Init cost per process (job launch handled by rsh-style scripts;
  /// small compared to BCS-MPI's runtime bring-up, see bench_fig9).
  Duration init_overhead = sim::msec(5);
};

class World;

/// Per-rank communicator handle (one per application process).
class BaselineComm final : public mpi::Comm {
 public:
  BaselineComm(World& world, int rank, sim::Process& proc);

  int rank() const override { return rank_; }
  int size() const override;
  SimTime now() const override;
  void compute(Duration work) override;

  mpi::Request isend(const void* buf, std::size_t bytes, int dest,
                     int tag) override;
  mpi::Request irecv(void* buf, std::size_t bytes, int src, int tag) override;
  void wait(mpi::Request& r, mpi::Status* status) override;
  bool test(mpi::Request& r, mpi::Status* status) override;
  bool completed(const mpi::Request& r) const override;
  bool probe(int src, int tag, mpi::Status* status, bool blocking) override;

  void barrier() override;
  void bcast(void* buf, std::size_t bytes, int root) override;
  void reduce(const void* contrib, void* result, std::size_t count,
              mpi::Datatype dt, mpi::ReduceOp op, int root) override;
  void allreduce(const void* contrib, void* result, std::size_t count,
                 mpi::Datatype dt, mpi::ReduceOp op) override;

  sim::Process& process() { return proc_; }

 private:
  World& world_;
  int rank_;
  sim::Process& proc_;
};

/// Shared state of one parallel job run over the baseline MPI.
class World {
 public:
  /// `node_of_rank[r]` is the cluster node hosting rank r.
  World(net::Cluster& cluster, BaselineConfig config,
        std::vector<int> node_of_rank);

  int size() const { return static_cast<int>(node_of_rank_.size()); }
  net::Cluster& cluster() { return cluster_; }
  const BaselineConfig& config() const { return config_; }
  int nodeOfRank(int rank) const {
    return node_of_rank_.at(static_cast<std::size_t>(rank));
  }

  /// Registers the process that runs `rank` and returns its communicator.
  /// Called once per rank, from the process fiber, before any communication
  /// (this is "MPI_Init": it also charges init_overhead).
  std::unique_ptr<BaselineComm> init(int rank, sim::Process& proc);

  /// Eager payloads and rendezvous whose recycled slot is still held
  /// (diagnostic: zero once the engine has run or dropped their callbacks).
  std::size_t messagesInFlight() const {
    return payloads_.inUse() + rendezvous_.inUse();
  }

 private:
  friend class BaselineComm;

  // ---- point-to-point plumbing ----
  //
  // A message's state on the wire lives in recycled slots (sim/slots.hpp):
  // an eager message's payload copy, and a rendezvous' RTS and then its
  // CTS-and-payload exchange.  The fabric callbacks hold a slot's Ref, so
  // each fits the inline callback slot and a warm world allocates nothing
  // per message.
  using Payload = sim::Slots<std::vector<std::byte>>::Ref;
  struct PostedRecv {
    std::uint64_t req_id = 0;
    void* buf = nullptr;
    std::size_t bytes = 0;
    int src = 0;  // kAnySource allowed
    int tag = 0;  // kAnyTag allowed
  };
  struct UnexpectedEager {
    Payload data;
    int src;
    int tag;
    SimTime arrived;
  };
  struct PendingRts {
    std::uint64_t sender_req = 0;
    const void* sender_buf = nullptr;
    std::size_t bytes = 0;
    int src = 0;
    int tag = 0;
  };
  /// A rendezvous in flight: the RTS, and once matched, its receive.
  struct Rendezvous {
    PendingRts rts;
    PostedRecv recv;
  };
  struct ReqState {
    bool complete = false;
    bool is_send = false;
    mpi::Status status;
  };
  /// The queues are vectors, FIFO by position: a warm vector serves every
  /// message without allocating.
  struct RankState {
    sim::Process* proc = nullptr;
    std::uint64_t next_req = 1;
    sim::FlatMap<std::uint64_t, ReqState> requests;  ///< by request id
    std::vector<PostedRecv> posted;        // receive queue, FIFO
    std::vector<UnexpectedEager> unexpected;
    std::vector<PendingRts> pending_rts;   // RTSes with no matching recv yet
    // Collective generations (each rank calls collectives in order).
    int barrier_gen = 0;
    int bcast_gen = 0;
    int reduce_gen = 0;
  };

  struct BarrierState {
    int arrived = 0;
    int exited = 0;
    bool released = false;
  };
  struct BcastState {
    std::shared_ptr<std::vector<std::byte>> data;
    std::vector<bool> node_arrived;  // indexed by cluster node
    bool root_sent = false;
    int exited = 0;
  };

  static bool tagMatches(int want_src, int want_tag, int src, int tag) {
    return (want_src == mpi::kAnySource || want_src == src) &&
           (want_tag == mpi::kAnyTag || want_tag == tag);
  }

  RankState& rs(int rank) { return ranks_.at(static_cast<std::size_t>(rank)); }

  std::uint64_t newRequest(int rank, bool is_send);
  void completeRequest(int rank, std::uint64_t req, int src, int tag,
                       std::size_t bytes);

  // Sender side.
  std::uint64_t startSend(int src_rank, const void* buf, std::size_t bytes,
                          int dest, int tag);
  // Receiver side.
  std::uint64_t startRecv(int dst_rank, void* buf, std::size_t bytes, int src,
                          int tag);

  void deliverEager(int dst_rank, int src_rank, int tag, Payload data);
  void deliverRts(int dst_rank, const PendingRts& rts);
  void issueCts(int dst_rank, const PendingRts& rts, const PostedRecv& recv);

  net::Cluster& cluster_;
  BaselineConfig config_;
  std::vector<int> node_of_rank_;
  std::vector<RankState> ranks_;
  sim::Slots<std::vector<std::byte>> payloads_;
  sim::Slots<Rendezvous> rendezvous_;
  std::map<int, BarrierState> barriers_;  // by generation
  std::map<int, BcastState> bcasts_;      // by generation
};

/// Convenience SPMD runner: spawns `size(node_of_rank)` processes, each
/// initializing the baseline MPI and running `body(comm)`.  Returns after
/// cluster.run() completes; per-rank finish times land in `finish_times`
/// (indexed by rank) if non-null.
void runJob(net::Cluster& cluster, BaselineConfig config,
            const std::vector<int>& node_of_rank,
            const std::function<void(mpi::Comm&)>& body,
            std::vector<SimTime>* finish_times = nullptr);

/// Standard block mapping of `nprocs` ranks onto compute nodes
/// (ranks 2i, 2i+1 share node i when 2 CPUs per node).
std::vector<int> blockMapping(int nprocs, int num_nodes, int per_node);

}  // namespace bcs::baseline
