// One-sided RMA: window registration, put/get/fetch-add posting, and the
// passive-target epoch machinery inside the global-slice microphases
// (DESIGN.md §11).
//
// The paper's BCS core primitives are already one-sided — Xfer-And-Signal
// is a put, Compare-And-Write a remote atomic — and this layer surfaces
// them through the same descriptor-posting discipline every other BCS-MPI
// operation uses.  One slice is one passive-target epoch:
//
//   post (slice t)  the origin rank drops an RmaOpDescriptor into its
//                   node's NIC FIFO and may keep computing;
//   DEM (slice t)   all ops bound for one destination node coalesce into a
//                   single batch descriptor (Carver et al.) and ride one
//                   droppable Xfer-And-Signal; lost batches retry per-op
//                   next slice, exactly like send descriptors;
//   MSM (slice t)   the target node sorts its arrived ops into canonical
//                   (job, origin rank, posting seq) order and applies them
//                   to the window — one apply point per epoch, so
//                   concurrent fetch-adds linearize identically on every
//                   run;
//   P2P (slice t)   results (get payloads, fetch-add old values, put acks)
//                   return to each origin node in one transfer;
//   boundary (t+1)  the Node Manager wakes blocked origin ranks: posted-in-
//                   slice-t ops are visible at the slice t+1 boundary.
//
// Every hook below is a strict no-op when no RMA op is in flight — no
// events, no traces, no stat changes — which is what keeps RMA-off runs
// byte-identical to the pre-RMA runtime.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "bcsmpi/runtime.hpp"

namespace bcs::bcsmpi {

const char* rmaKindName(RmaKind k) {
  switch (k) {
    case RmaKind::kPut: return "put";
    case RmaKind::kGet: return "get";
    case RmaKind::kFetchAdd: return "fetch-add";
  }
  return "?";
}

namespace {

/// Wire bytes one op contributes beyond the shared batch header: its record
/// plus any payload that travels with it (put data out, nothing for get —
/// the data rides the return leg — and the 8-byte operand for fetch-add).
std::size_t rmaOutboundBytes(const BcsMpiConfig& cfg,
                             const RmaOpDescriptor& op) {
  switch (op.kind) {
    case RmaKind::kPut: return cfg.rma_op_bytes + op.bytes;
    case RmaKind::kGet: return cfg.rma_op_bytes;
    case RmaKind::kFetchAdd: return cfg.rma_op_bytes + sizeof(std::int64_t);
  }
  return cfg.rma_op_bytes;
}

/// Wire bytes of one op's return record (completion + inbound payload).
std::size_t rmaReturnBytes(const BcsMpiConfig& cfg,
                           const RmaOpDescriptor& op) {
  switch (op.kind) {
    case RmaKind::kPut: return cfg.rma_op_bytes;
    case RmaKind::kGet: return cfg.rma_op_bytes + op.bytes;
    case RmaKind::kFetchAdd: return cfg.rma_op_bytes + sizeof(std::int64_t);
  }
  return cfg.rma_op_bytes;
}

/// Canonical epoch order: (job, origin rank, posting seq).  One total order
/// on every node for every run, which is what "fetch-add resolved in
/// canonical rank order" means operationally.
bool canonicalRmaOrder(const RmaOpDescriptor& a, const RmaOpDescriptor& b) {
  if (a.job != b.job) return a.job < b.job;
  if (a.origin_rank != b.origin_rank) return a.origin_rank < b.origin_rank;
  return a.seq < b.seq;
}

}  // namespace

// ---------------------------------------------------------------------------
// Posting (application fibers)
// ---------------------------------------------------------------------------

int Runtime::createWindow(int job, int rank, void* base, std::size_t bytes) {
  RankState& rs = rankState(job, rank);
  if (rs.proc) rs.proc->compute(config_.post_overhead);
  const int win =
      windows_.registerWindow(windowOwnerKey(job, rank), base, bytes);
  return win;
}

std::uint64_t Runtime::postRma(const char* what, RmaOpDescriptor d) {
  checkRank(d.job, d.target_rank, what, "target");
  const Posting post = beginPost(d.job, d.origin_rank);
  d.request = post.req;
  d.posted_at = post.at;
  d.seq = ++desc_seq_;
  d.call_index = post.rs.next_rma_call++;
  ++stats_.rma_ops;
  nodeState(post.rs.node).rma_fresh.push_back(d);
  return post.req;
}

std::uint64_t Runtime::postPut(int job, int rank, int target, int window,
                               std::size_t offset, const void* src,
                               std::size_t bytes) {
  return postRma("postPut",
                 {.job = job, .origin_rank = rank, .target_rank = target,
                  .kind = RmaKind::kPut, .window = window, .offset = offset,
                  .bytes = bytes,
                  .origin_src = static_cast<const std::byte*>(src)});
}

std::uint64_t Runtime::postGet(int job, int rank, int target, int window,
                               std::size_t offset, void* dst,
                               std::size_t bytes) {
  return postRma("postGet",
                 {.job = job, .origin_rank = rank, .target_rank = target,
                  .kind = RmaKind::kGet, .window = window, .offset = offset,
                  .bytes = bytes, .origin_dst = static_cast<std::byte*>(dst)});
}

std::uint64_t Runtime::postFetchAdd(int job, int rank, int target, int window,
                                    std::size_t offset, std::int64_t delta,
                                    std::int64_t* old_value) {
  return postRma("postFetchAdd",
                 {.job = job, .origin_rank = rank, .target_rank = target,
                  .kind = RmaKind::kFetchAdd, .window = window,
                  .offset = offset, .bytes = sizeof(std::int64_t),
                  .origin_dst = reinterpret_cast<std::byte*>(old_value),
                  .operand = delta});
}

// ---------------------------------------------------------------------------
// DEM — coalesced exchange (Buffer Sender side)
// ---------------------------------------------------------------------------

void Runtime::drainRmaFifos(int node) {
  NodeState& ns = nodeState(node);
  if (ns.rma_retry.empty() && ns.rma_fresh.empty()) return;
  // Retransmissions first, same as the send-descriptor FIFO: they are older
  // than everything still fresh.
  std::vector<RmaOpDescriptor> to_exchange;
  to_exchange.reserve(ns.rma_retry.size() + ns.rma_fresh.size());
  to_exchange.insert(to_exchange.end(),
                     std::make_move_iterator(ns.rma_retry.begin()),
                     std::make_move_iterator(ns.rma_retry.end()));
  to_exchange.insert(to_exchange.end(),
                     std::make_move_iterator(ns.rma_fresh.begin()),
                     std::make_move_iterator(ns.rma_fresh.end()));
  ns.rma_retry.clear();
  ns.rma_fresh.clear();

  // NIC-thread processing time for the drained batch.
  const Duration work = static_cast<Duration>(to_exchange.size()) *
                        config_.nic_desc_processing;
  if (work > 0) {
    opStarted(node);
    op_timers_.afterRange(work, node);
  }

  // Coalescing (Carver et al.): all ops bound for one destination node
  // share one descriptor-sized header per slice; each op adds only its
  // record + payload.  A std::map keyes the grouping so batch issue order
  // is destination order — canonical on every run.
  std::map<int, std::vector<RmaOpDescriptor>> by_dest;
  for (RmaOpDescriptor& op : to_exchange) {
    const int dst_node = nodeOfRank(op.job, op.target_rank);
    if (nodeEvicted(dst_node)) {
      failRequest(op.job, op.origin_rank, op.request, op.target_rank,
                  op.window);
      continue;
    }
    by_dest[dst_node].push_back(std::move(op));
  }

  for (auto& [dst_node, group] : by_dest) {
    std::size_t bytes = config_.descriptor_bytes;
    for (const RmaOpDescriptor& op : group) {
      bytes += rmaOutboundBytes(config_, op);
    }
    auto batch =
        std::make_shared<std::vector<RmaOpDescriptor>>(std::move(group));
    opStarted(node);
    ++stats_.rma_batches;
    ++stats_.descriptors_exchanged;
    const int dst = dst_node;
    core::XferRequest xfer;
    xfer.src_node = node;
    xfer.dest_nodes = {&dst, 1};
    xfer.bytes = bytes;
    xfer.droppable = true;
    xfer.deliver = [this, node, dst, batch](int) {
      NodeState& dest = nodeState(dst);
      dest.rma_inbound.insert(dest.rma_inbound.end(), batch->begin(),
                              batch->end());
      sim::traceRecord(
          trace_, cluster_.engine().now(), sim::TraceCategory::kDescriptor,
          dst, [&] {
            return "rma batch from n" + std::to_string(node) + ": " +
                   std::to_string(batch->size()) + " op(s)";
          });
      opFinished(node);
    };
    xfer.on_failed = [this, node, dst, batch](int) {
      if (nodeEvicted(node)) {  // we died while the batch was in flight
        opFinished(node);
        return;
      }
      for (const RmaOpDescriptor& op : *batch) {
        if (nodeEvicted(dst) ||
            op.retries >= config_.max_descriptor_retries) {
          failRequest(op.job, op.origin_rank, op.request, op.target_rank,
                      op.window);
          continue;
        }
        RmaOpDescriptor retry = op;
        ++retry.retries;
        ++stats_.retransmits;
        sim::traceRecord(
            trace_, cluster_.engine().now(), sim::TraceCategory::kFault,
            node, [&] {
              return std::string("rma ") + rmaKindName(op.kind) +
                     " to rank " + std::to_string(op.target_rank) +
                     " lost; retransmit #" + std::to_string(retry.retries) +
                     " next slice";
            });
        nodeState(node).rma_retry.push_back(std::move(retry));
      }
      opFinished(node);
    };
    core_.xferAndSignal(std::move(xfer));
  }
}

// ---------------------------------------------------------------------------
// MSM — canonical epoch apply (target node)
// ---------------------------------------------------------------------------

void Runtime::scheduleRmaOps(int node, Duration& cost) {
  NodeState& ns = nodeState(node);
  if (ns.rma_inbound.empty()) return;
  std::vector<RmaOpDescriptor> epoch;
  epoch.swap(ns.rma_inbound);
  // The single sort at the single apply point is the determinism argument:
  // whatever order batches arrived in (first try or retransmitted),
  // the epoch applies in (job, origin rank, seq) order.
  std::sort(epoch.begin(), epoch.end(), canonicalRmaOrder);
  if (verifier_) {
    verifier_->onRmaEpoch(slice_index_, cluster_.engine().now(), node, epoch);
  }
  for (const RmaOpDescriptor& op : epoch) {
    cost += config_.nic_rma_op_cost;
    applyRmaOp(node, op);
  }
}

void Runtime::applyRmaOp(int node, const RmaOpDescriptor& op) {
  const core::WindowRegion& region = windows_.resolve(
      windowOwnerKey(op.job, op.target_rank), op.window, op.offset, op.bytes);
  switch (op.kind) {
    case RmaKind::kPut:
      std::memcpy(region.base + op.offset, op.origin_src, op.bytes);
      break;
    case RmaKind::kGet: {
      // The origin buffer is written here, at the apply point, and the
      // payload cost is charged on the return transfer — the same early-
      // write trick issueGets uses: the origin rank is blocked (or has not
      // waited) until its completion lands, so the write is unobservable
      // before then.
      std::memcpy(op.origin_dst, region.base + op.offset, op.bytes);
      break;
    }
    case RmaKind::kFetchAdd: {
      std::int64_t old = 0;
      std::memcpy(&old, region.base + op.offset, sizeof(old));
      const std::int64_t fresh = old + op.operand;
      std::memcpy(region.base + op.offset, &fresh, sizeof(fresh));
      if (op.origin_dst != nullptr) {
        std::memcpy(op.origin_dst, &old, sizeof(old));
      }
      break;
    }
  }
  sim::traceRecord(
      trace_, cluster_.engine().now(), sim::TraceCategory::kDma, node, [&] {
        return std::string("rma ") + rmaKindName(op.kind) + " " +
               std::to_string(op.bytes) + "B from rank " +
               std::to_string(op.origin_rank) + " on win " +
               std::to_string(op.window) + " of rank " +
               std::to_string(op.target_rank) + " @" +
               std::to_string(op.offset);
      });
  nodeState(node).rma_returns.push_back(op);
}

// ---------------------------------------------------------------------------
// P2P — completion returns to the origin nodes
// ---------------------------------------------------------------------------

void Runtime::runRmaReturns(int node) {
  NodeState& ns = nodeState(node);
  if (ns.rma_returns.empty()) return;
  // Swapped with the (empty) scratch vector: a return lost in this phase
  // re-queues into the scratch vector's recycled capacity.
  std::vector<RmaOpDescriptor>& rets = returns_scratch_;
  rets.clear();
  rets.swap(ns.rma_returns);

  std::map<int, std::vector<RmaOpDescriptor>> by_origin;
  for (RmaOpDescriptor& op : rets) {
    const int origin_node = nodeOfRank(op.job, op.origin_rank);
    if (nodeEvicted(origin_node)) continue;  // no one left to complete
    by_origin[origin_node].push_back(std::move(op));
  }

  for (auto& [origin_node, group] : by_origin) {
    std::size_t bytes = config_.descriptor_bytes;
    for (const RmaOpDescriptor& op : group) {
      bytes += rmaReturnBytes(config_, op);
    }
    auto batch =
        std::make_shared<std::vector<RmaOpDescriptor>>(std::move(group));
    opStarted(node);
    const int origin = origin_node;
    core::XferRequest xfer;
    xfer.src_node = node;
    xfer.dest_nodes = {&origin, 1};
    xfer.bytes = bytes;
    xfer.droppable = true;
    xfer.deliver = [this, node, batch](int) {
      for (const RmaOpDescriptor& op : *batch) {
        completeRequest(op.job, op.origin_rank, op.request, op.target_rank,
                        op.window, op.bytes);
      }
      opFinished(node);
    };
    xfer.on_failed = [this, node, origin, batch](int) {
      if (nodeEvicted(node)) {
        // The applying node died mid-return; release the live origins (the
        // in-flight batch is invisible to the eviction scrub).
        for (const RmaOpDescriptor& op : *batch) {
          failRequest(op.job, op.origin_rank, op.request, op.target_rank,
                      op.window);
        }
        opFinished(node);
        return;
      }
      if (!nodeEvicted(origin)) {
        // The ops already applied — completion must not be re-applied, only
        // re-delivered.  Uncapped like chunk retries: the origin is alive,
        // so the return eventually lands.
        ++stats_.retransmits;
        sim::traceRecord(
            trace_, cluster_.engine().now(), sim::TraceCategory::kFault,
            node, [&] {
              return "rma completion batch to n" + std::to_string(origin) +
                     " (" + std::to_string(batch->size()) +
                     " op(s)) lost; retrying next slice";
            });
        NodeState& my = nodeState(node);
        my.rma_returns.insert(my.rma_returns.end(), batch->begin(),
                              batch->end());
      }
      opFinished(node);
    };
    core_.xferAndSignal(std::move(xfer));
  }
}

}  // namespace bcs::bcsmpi
