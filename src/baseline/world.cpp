#include <algorithm>
#include <cstring>
#include <utility>

#include "baseline/baseline.hpp"

namespace bcs::baseline {

namespace {
constexpr std::size_t kEagerHeaderBytes = 32;
}  // namespace

World::World(net::Cluster& cluster, BaselineConfig config,
             std::vector<int> node_of_rank)
    : cluster_(cluster),
      config_(config),
      node_of_rank_(std::move(node_of_rank)),
      ranks_(node_of_rank_.size()) {
  for (int node : node_of_rank_) {
    if (node < 0 || node >= cluster_.numComputeNodes()) {
      throw sim::SimError("baseline::World: rank mapped to bad node " +
                          std::to_string(node));
    }
  }
}

std::unique_ptr<BaselineComm> World::init(int rank, sim::Process& proc) {
  RankState& state = rs(rank);
  if (state.proc != nullptr) {
    throw sim::SimError("baseline::World: rank " + std::to_string(rank) +
                        " initialized twice");
  }
  state.proc = &proc;
  proc.compute(config_.init_overhead);
  return std::make_unique<BaselineComm>(*this, rank, proc);
}

std::uint64_t World::newRequest(int rank, bool is_send) {
  RankState& state = rs(rank);
  const std::uint64_t id = state.next_req++;
  ReqState req;
  req.is_send = is_send;
  state.requests.emplace(id, req);
  return id;
}

void World::completeRequest(int rank, std::uint64_t req, int src, int tag,
                            std::size_t bytes) {
  RankState& state = rs(rank);
  auto it = state.requests.find(req);
  if (it == state.requests.end()) return;  // request was abandoned
  it->second.complete = true;
  it->second.status.source = src;
  it->second.status.tag = tag;
  it->second.status.bytes = bytes;
  if (state.proc) state.proc->wake();
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

std::uint64_t World::startSend(int src_rank, const void* buf,
                               std::size_t bytes, int dest, int tag) {
  if (dest < 0 || dest >= size()) {
    throw sim::SimError("send: bad destination rank " + std::to_string(dest));
  }
  RankState& state = rs(src_rank);
  state.proc->compute(config_.send_overhead);
  const std::uint64_t req = newRequest(src_rank, /*is_send=*/true);
  const int src_node = nodeOfRank(src_rank);
  const int dst_node = nodeOfRank(dest);

  if (bytes <= config_.eager_threshold) {
    // Eager: copy out of the user buffer now; the send completes once the
    // NIC has injected the message (the buffer is reusable from then on).
    auto data = std::make_shared<std::vector<std::byte>>(
        static_cast<const std::byte*>(buf),
        static_cast<const std::byte*>(buf) + bytes);
    cluster_.fabric().unicast(
        src_node, dst_node, bytes + kEagerHeaderBytes,
        /*on_delivered=*/
        [this, dest, src_rank, tag, data] {
          deliverEager(dest, src_rank, tag, data);
        },
        /*on_injected=*/
        [this, src_rank, req, dest, tag, bytes] {
          completeRequest(src_rank, req, dest, tag, bytes);
        });
    return req;
  }

  // Rendezvous: send an RTS; the payload moves zero-copy once the receiver
  // posts a matching receive and returns a CTS.
  state.proc->compute(config_.rendezvous_overhead);
  PendingRts rts;
  rts.sender_req = req;
  rts.sender_buf = buf;
  rts.bytes = bytes;
  rts.src = src_rank;
  rts.tag = tag;
  cluster_.fabric().unicast(src_node, dst_node, config_.control_message_bytes,
                            [this, dest, rts] { deliverRts(dest, rts); });
  return req;
}

void World::deliverEager(int dst_rank, int src_rank, int tag,
                         std::shared_ptr<std::vector<std::byte>> data) {
  RankState& state = rs(dst_rank);
  // Try to match a posted receive (FIFO).
  for (auto it = state.posted.begin(); it != state.posted.end(); ++it) {
    if (!tagMatches(it->src, it->tag, src_rank, tag)) continue;
    if (data->size() > it->bytes) {
      throw sim::SimError("recv truncation: rank " + std::to_string(dst_rank) +
                          " posted " + std::to_string(it->bytes) +
                          "B for a " + std::to_string(data->size()) +
                          "B message (src=" + std::to_string(src_rank) +
                          ", tag=" + std::to_string(tag) + ")");
    }
    // Zero-byte messages may carry null buffers (see the BCS-MPI DH get).
    if (!data->empty()) std::memcpy(it->buf, data->data(), data->size());
    const std::uint64_t req = it->req_id;
    state.posted.erase(it);
    completeRequest(dst_rank, req, src_rank, tag, data->size());
    return;
  }
  // Unexpected: buffer it.
  UnexpectedEager u;
  u.data = std::move(data);
  u.src = src_rank;
  u.tag = tag;
  u.arrived = cluster_.engine().now();
  state.unexpected.push_back(std::move(u));
  if (state.proc) state.proc->wake();  // a blocking probe may be waiting
}

void World::deliverRts(int dst_rank, PendingRts rts) {
  RankState& state = rs(dst_rank);
  for (auto it = state.posted.begin(); it != state.posted.end(); ++it) {
    if (!tagMatches(it->src, it->tag, rts.src, rts.tag)) continue;
    PostedRecv recv = *it;
    state.posted.erase(it);
    issueCts(dst_rank, rts, recv);
    return;
  }
  state.pending_rts.push_back(rts);
  if (state.proc) state.proc->wake();  // blocking probe
}

void World::issueCts(int dst_rank, const PendingRts& rts,
                     const PostedRecv& recv) {
  if (rts.bytes > recv.bytes) {
    throw sim::SimError("recv truncation (rendezvous): posted " +
                        std::to_string(recv.bytes) + "B for a " +
                        std::to_string(rts.bytes) + "B message");
  }
  const int dst_node = nodeOfRank(dst_rank);
  const int src_node = nodeOfRank(rts.src);
  // CTS control message back to the sender...
  cluster_.fabric().unicast(
      dst_node, src_node, config_.control_message_bytes,
      [this, dst_rank, dst_node, src_node, rts, recv] {
        // ...then the payload, zero-copy out of the sender buffer.
        // The payload moves as a get out of the sender buffer, so the
        // sender's request must stay open (buffer pinned) until delivery.
        cluster_.fabric().unicast(
            src_node, dst_node, rts.bytes,
            /*on_delivered=*/
            [this, dst_rank, rts, recv] {
              std::memcpy(recv.buf, rts.sender_buf, rts.bytes);
              completeRequest(dst_rank, recv.req_id, rts.src, rts.tag,
                              rts.bytes);
              completeRequest(rts.src, rts.sender_req, dst_rank, rts.tag,
                              rts.bytes);
            });
      });
}

std::uint64_t World::startRecv(int dst_rank, void* buf, std::size_t bytes,
                               int src, int tag) {
  RankState& state = rs(dst_rank);
  state.proc->compute(config_.recv_overhead);
  const std::uint64_t req = newRequest(dst_rank, /*is_send=*/false);

  // 1. Unexpected eager messages, in arrival order.
  for (auto it = state.unexpected.begin(); it != state.unexpected.end();
       ++it) {
    if (!tagMatches(src, tag, it->src, it->tag)) continue;
    if (it->data->size() > bytes) {
      throw sim::SimError("recv truncation: posted " + std::to_string(bytes) +
                          "B for a " + std::to_string(it->data->size()) +
                          "B unexpected message");
    }
    std::memcpy(buf, it->data->data(), it->data->size());
    completeRequest(dst_rank, req, it->src, it->tag, it->data->size());
    state.unexpected.erase(it);
    return req;
  }
  // 2. Pending rendezvous RTSes.
  for (auto it = state.pending_rts.begin(); it != state.pending_rts.end();
       ++it) {
    if (!tagMatches(src, tag, it->src, it->tag)) continue;
    PendingRts rts = *it;
    state.pending_rts.erase(it);
    PostedRecv recv{req, buf, bytes, src, tag};
    issueCts(dst_rank, rts, recv);
    return req;
  }
  // 3. Nothing yet: post.
  state.posted.push_back(PostedRecv{req, buf, bytes, src, tag});
  return req;
}

// ---------------------------------------------------------------------------
// runJob
// ---------------------------------------------------------------------------

void runJob(net::Cluster& cluster, BaselineConfig config,
            const std::vector<int>& node_of_rank,
            const std::function<void(mpi::Comm&)>& body,
            std::vector<SimTime>* finish_times) {
  auto world = std::make_shared<World>(cluster, config, node_of_rank);
  const int nprocs = world->size();
  if (finish_times) finish_times->assign(static_cast<std::size_t>(nprocs), 0);
  for (int r = 0; r < nprocs; ++r) {
    cluster.spawn(node_of_rank[static_cast<std::size_t>(r)],
                  "baseline-rank" + std::to_string(r),
                  [world, r, body, finish_times](sim::Process& proc) {
                    auto comm = world->init(r, proc);
                    body(*comm);
                    if (finish_times) {
                      (*finish_times)[static_cast<std::size_t>(r)] =
                          proc.now();
                    }
                  });
  }
  cluster.run();
  if (!cluster.allProcessesFinished()) {
    std::string who;
    for (const auto& n : cluster.unfinishedProcesses()) who += " " + n;
    throw sim::SimError("baseline::runJob deadlock; unfinished:" + who);
  }
}

std::vector<int> blockMapping(int nprocs, int num_nodes, int per_node) {
  std::vector<int> map(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    const int node = r / per_node;
    if (node >= num_nodes) {
      throw sim::SimError("blockMapping: not enough nodes for " +
                          std::to_string(nprocs) + " ranks");
    }
    map[static_cast<std::size_t>(r)] = node;
  }
  return map;
}

}  // namespace bcs::baseline
