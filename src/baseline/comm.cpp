#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/baseline.hpp"

namespace bcs::baseline {

namespace {
/// Host-side per-element cost of combining reduction operands (cached
/// adds on a 1 GHz Pentium-III).
constexpr sim::Duration kHostReducePerElement = 3;  // ns
/// Internal tag band for the host binomial reduce tree (negative tags are
/// invisible to application wildcard receives; see mpi/comm.hpp).
constexpr int kReduceTagBase = -(1 << 22);

/// A root or source rank outside the job fails at the call, as a bad send
/// destination does.
void checkRank(const char* op, const char* role, int rank, int size) {
  if (rank < 0 || rank >= size) {
    throw sim::SimError(std::string(op) + ": bad " + role + " rank " +
                        std::to_string(rank));
  }
}
}  // namespace

BaselineComm::BaselineComm(World& world, int rank, sim::Process& proc)
    : world_(world), rank_(rank), proc_(proc) {}

int BaselineComm::size() const { return world_.size(); }

SimTime BaselineComm::now() const { return proc_.now(); }

void BaselineComm::compute(Duration work) { proc_.compute(work); }

mpi::Request BaselineComm::isend(const void* buf, std::size_t bytes, int dest,
                                 int tag) {
  return mpi::Request{world_.startSend(rank_, buf, bytes, dest, tag)};
}

mpi::Request BaselineComm::irecv(void* buf, std::size_t bytes, int src,
                                 int tag) {
  if (src != mpi::kAnySource) checkRank("recv", "source", src, size());
  return mpi::Request{world_.startRecv(rank_, buf, bytes, src, tag)};
}

void BaselineComm::wait(mpi::Request& r, mpi::Status* status) {
  if (r.null()) return;
  World::RankState& state = world_.rs(rank_);
  auto it = state.requests.find(r.id);
  if (it == state.requests.end()) {
    throw sim::SimError("wait on unknown request");
  }
  while (!it->second.complete) {
    proc_.block();
    it = state.requests.find(r.id);
  }
  if (status) *status = it->second.status;
  state.requests.erase(it);
  r = mpi::Request{};
}

bool BaselineComm::test(mpi::Request& r, mpi::Status* status) {
  if (r.null()) return true;
  World::RankState& state = world_.rs(rank_);
  auto it = state.requests.find(r.id);
  if (it == state.requests.end()) {
    throw sim::SimError("test on unknown request");
  }
  if (!it->second.complete) return false;
  if (status) *status = it->second.status;
  state.requests.erase(it);
  r = mpi::Request{};
  return true;
}

bool BaselineComm::completed(const mpi::Request& r) const {
  if (r.null()) return true;
  const World::RankState& state =
      const_cast<World&>(world_).rs(rank_);
  auto it = state.requests.find(r.id);
  if (it == state.requests.end()) {
    throw sim::SimError("completed() on unknown request");
  }
  return it->second.complete;
}

bool BaselineComm::probe(int src, int tag, mpi::Status* status,
                         bool blocking) {
  if (src != mpi::kAnySource) checkRank("probe", "source", src, size());
  World::RankState& state = world_.rs(rank_);
  while (true) {
    for (const auto& u : state.unexpected) {
      if (World::tagMatches(src, tag, u.src, u.tag)) {
        if (status) {
          status->source = u.src;
          status->tag = u.tag;
          status->bytes = u.data->size();
        }
        return true;
      }
    }
    for (const auto& rts : state.pending_rts) {
      if (World::tagMatches(src, tag, rts.src, rts.tag)) {
        if (status) {
          status->source = rts.src;
          status->tag = rts.tag;
          status->bytes = rts.bytes;
        }
        return true;
      }
    }
    if (!blocking) return false;
    proc_.block();  // woken on any arrival
  }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

void BaselineComm::barrier() {
  proc_.compute(world_.config().collective_overhead);
  World::RankState& state = world_.rs(rank_);
  const int gen = state.barrier_gen++;
  World::BarrierState& b = world_.barriers_[gen];
  ++b.arrived;
  if (b.arrived == size()) {
    // Last arrival fires the hardware barrier; everyone is released one
    // hw_barrier_latency later.
    world_.cluster_.engine().after(world_.config().hw_barrier_latency,
                                   [this, gen] {
                                     World::BarrierState& bb =
                                         world_.barriers_[gen];
                                     bb.released = true;
                                     for (auto& rk : world_.ranks_) {
                                       if (rk.proc) rk.proc->wake();
                                     }
                                   });
  }
  while (!world_.barriers_[gen].released) proc_.block();
  // Cleanup: the last rank to leave retires the generation.
  World::BarrierState& done = world_.barriers_[gen];
  if (++done.exited == size()) world_.barriers_.erase(gen);
}

void BaselineComm::bcast(void* buf, std::size_t bytes, int root) {
  checkRank("bcast", "root", root, size());
  proc_.compute(world_.config().collective_overhead);
  World::RankState& state = world_.rs(rank_);
  const int gen = state.bcast_gen++;
  World::BcastState& st = world_.bcasts_[gen];
  if (st.node_arrived.empty()) {
    st.node_arrived.assign(static_cast<std::size_t>(world_.cluster_.totalNodes()),
                           false);
  }

  if (rank_ == root) {
    st.data = std::make_shared<std::vector<std::byte>>(
        static_cast<const std::byte*>(buf),
        static_cast<const std::byte*>(buf) + bytes);
    std::vector<int> dest_nodes;
    for (int r = 0; r < size(); ++r) {
      if (r != root) dest_nodes.push_back(world_.nodeOfRank(r));
    }
    world_.cluster_.fabric().multicast(
        world_.nodeOfRank(root), dest_nodes, bytes,
        /*per destination node*/
        [this, gen](int node) {
          World::BcastState& s = world_.bcasts_[gen];
          s.node_arrived[static_cast<std::size_t>(node)] = true;
          for (auto& rk : world_.ranks_) {
            if (rk.proc) rk.proc->wake();
          }
        },
        /*all delivered*/
        [this, gen] {
          world_.bcasts_[gen].root_sent = true;
          for (auto& rk : world_.ranks_) {
            if (rk.proc) rk.proc->wake();
          }
        });
    while (!world_.bcasts_[gen].root_sent) proc_.block();
  } else {
    const auto my_node = static_cast<std::size_t>(world_.nodeOfRank(rank_));
    const auto root_node = static_cast<std::size_t>(world_.nodeOfRank(root));
    if (my_node == root_node) {
      // Co-located with the root: the payload is in node memory already;
      // it is visible once the root has issued the broadcast.
      while (!world_.bcasts_[gen].root_sent) proc_.block();
    } else {
      while (!world_.bcasts_[gen].node_arrived[my_node]) proc_.block();
    }
    World::BcastState& s = world_.bcasts_[gen];
    if (s.data->size() != bytes) {
      throw sim::SimError("bcast: size mismatch across ranks");
    }
    std::memcpy(buf, s.data->data(), bytes);
  }
  World::BcastState& done = world_.bcasts_[gen];
  if (++done.exited == size()) world_.bcasts_.erase(gen);
}

void BaselineComm::reduce(const void* contrib, void* result,
                          std::size_t count, mpi::Datatype dt,
                          mpi::ReduceOp op, int root) {
  checkRank("reduce", "root", root, size());
  proc_.compute(world_.config().collective_overhead);
  World::RankState& state = world_.rs(rank_);
  const int gen = state.reduce_gen++;
  const int tag = kReduceTagBase - (gen & 0xFFFF);
  const std::size_t bytes = count * datatypeSize(dt);
  const int P = size();

  // Binomial tree rooted (virtually) at 0 after rotating ranks by root.
  const int rel = (rank_ - root + P) % P;
  std::vector<std::byte> acc(static_cast<const std::byte*>(contrib),
                             static_cast<const std::byte*>(contrib) + bytes);
  std::vector<std::byte> incoming(bytes);
  for (int mask = 1; mask < P; mask <<= 1) {
    if ((rel & mask) != 0) {
      const int parent_rel = rel & ~mask;
      const int parent = (parent_rel + root) % P;
      send(acc.data(), bytes, parent, tag);
      break;
    }
    const int child_rel = rel | mask;
    if (child_rel >= P) continue;
    const int child = (child_rel + root) % P;
    recv(incoming.data(), bytes, child, tag);
    proc_.compute(static_cast<Duration>(count) * kHostReducePerElement);
    mpi::applyReduce(op, dt, acc.data(), incoming.data(), count,
                     mpi::ReduceFlavor::kHost);
  }
  if (rank_ == root) std::memcpy(result, acc.data(), bytes);
}

void BaselineComm::allreduce(const void* contrib, void* result,
                             std::size_t count, mpi::Datatype dt,
                             mpi::ReduceOp op) {
  reduce(contrib, result, count, dt, op, /*root=*/0);
  bcast(result, count * datatypeSize(dt), /*root=*/0);
}

}  // namespace bcs::baseline
