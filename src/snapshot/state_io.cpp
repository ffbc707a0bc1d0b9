#include "snapshot/state_io.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/wire.hpp"

namespace bcs::snapshot {

namespace {

// ---------------------------------------------------------------------------
// Descriptor encoding (pointers swizzled through the BufferRegistry)
// ---------------------------------------------------------------------------

void saveSend(Encoder& e, const BufferRegistry& reg,
              const bcsmpi::SendDescriptor& d) {
  e.i32(d.job);
  e.i32(d.src_rank);
  e.i32(d.dst_rank);
  e.i32(d.tag);
  reg.saveRef(e, d.data);
  e.u64(d.bytes);
  e.u64(d.request);
  e.i64(d.posted_at);
  e.u64(d.seq);
  e.i32(d.retries);
}

bcsmpi::SendDescriptor loadSend(Decoder& d, const BufferRegistry& reg) {
  bcsmpi::SendDescriptor s;
  s.job = d.i32();
  s.src_rank = d.i32();
  s.dst_rank = d.i32();
  s.tag = d.i32();
  s.data = reg.loadRef(d);
  s.bytes = d.u64();
  s.request = d.u64();
  s.posted_at = d.i64();
  s.seq = d.u64();
  s.retries = d.i32();
  return s;
}

void saveRecv(Encoder& e, const BufferRegistry& reg,
              const bcsmpi::RecvDescriptor& d) {
  e.i32(d.job);
  e.i32(d.dst_rank);
  e.i32(d.want_src);
  e.i32(d.want_tag);
  reg.saveRef(e, d.data);
  e.u64(d.bytes);
  e.u64(d.request);
  e.i64(d.posted_at);
  e.u64(d.seq);
}

bcsmpi::RecvDescriptor loadRecv(Decoder& d, const BufferRegistry& reg) {
  bcsmpi::RecvDescriptor r;
  r.job = d.i32();
  r.dst_rank = d.i32();
  r.want_src = d.i32();
  r.want_tag = d.i32();
  r.data = reg.loadRef(d);
  r.bytes = d.u64();
  r.request = d.u64();
  r.posted_at = d.i64();
  r.seq = d.u64();
  return r;
}

void saveIntVec(Encoder& e, const std::vector<int>& v) {
  e.u32(static_cast<std::uint32_t>(v.size()));
  for (int x : v) e.i32(x);
}

std::vector<int> loadIntVec(Decoder& d) {
  const std::uint32_t n = d.u32();
  std::vector<int> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(d.i32());
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Capture-time guards
// ---------------------------------------------------------------------------

void StateIO::checkCapturable(Simulation& sim) {
  auto refuse = [](const std::string& why) {
    throw SnapshotError("capture", why);
  };
  if (sim.cluster->processCount() > 0) {
    refuse("cluster has process fibers; only detached workloads "
           "(registerDetachedRank) are checkpointable");
  }
  bcsmpi::Runtime& rt = *sim.runtime;
  if (rt.election_inflight_) refuse("failover election in flight");
  if (!rt.checkpoint_cbs_.empty()) {
    refuse("un-dispatched requestCheckpoint callbacks");
  }
  if (!rt.pending_evictions_.empty() || !rt.pending_rejoins_.empty()) {
    refuse("pending evictions/rejoins: capture must run at the slice "
           "boundary, after recovery (use the snapshot sink)");
  }
  for (const auto& ns : rt.nodes_) {
    if (!ns.coll_fresh.empty()) refuse("undrained collective descriptors");
    for (const auto& [job, pc] : ns.pending_coll) {
      if (pc.active) {
        refuse("collective in flight (job " + std::to_string(job) + ")");
      }
    }
    if (!ns.rma_fresh.empty() || !ns.rma_retry.empty() ||
        !ns.rma_inbound.empty() || !ns.rma_returns.empty()) {
      refuse("RMA epoch in flight (one-sided ops hold raw window pointers)");
    }
  }
  if (rt.windows_.totalWindows() != 0) {
    refuse("registered RMA windows (window base addresses cannot be "
           "serialized; free windows before capture)");
  }
  auto checkCore = [&refuse](core::BcsCore& c, const char* which) {
    for (const auto& per_node : c.events_) {
      for (const auto& ev : per_node) {
        if (!ev.waiters.empty()) {
          refuse(std::string("queued event waiters on the ") + which +
                 " core (closures cannot be serialized)");
        }
      }
    }
  };
  checkCore(rt.core_, "runtime");
  if (sim.storm) checkCore(sim.storm->core_, "storm");
}

// ---------------------------------------------------------------------------
// Per-subsystem serializers
// ---------------------------------------------------------------------------

void StateIO::saveCore(Encoder& e, const core::BcsCore& c) {
  e.u32(static_cast<std::uint32_t>(c.vars_.size()));
  for (const auto& per_node : c.vars_) {
    e.u32(static_cast<std::uint32_t>(per_node.size()));
    for (std::int64_t v : per_node) e.i64(v);
  }
  e.u32(static_cast<std::uint32_t>(c.events_.size()));
  for (const auto& per_node : c.events_) {
    e.u32(static_cast<std::uint32_t>(per_node.size()));
    for (const auto& ev : per_node) e.i32(ev.pending);
  }
}

void StateIO::restoreCore(Decoder& d, core::BcsCore& c) {
  const std::uint32_t nvars = d.u32();
  if (nvars != c.vars_.size()) {
    d.fail("global-variable count mismatch (snapshot " +
           std::to_string(nvars) + ", fresh " +
           std::to_string(c.vars_.size()) + ")");
  }
  for (auto& per_node : c.vars_) {
    const std::uint32_t nn = d.u32();
    if (nn != per_node.size()) d.fail("variable replica count mismatch");
    for (std::int64_t& v : per_node) v = d.i64();
  }
  const std::uint32_t nevents = d.u32();
  if (nevents != c.events_.size()) d.fail("event count mismatch");
  for (auto& per_node : c.events_) {
    const std::uint32_t nn = d.u32();
    if (nn != per_node.size()) d.fail("event replica count mismatch");
    for (auto& ev : per_node) ev.pending = d.i32();
  }
  d.expectEnd();
}

void StateIO::saveStorm(Encoder& e, const storm::Storm& st) {
  e.u32(static_cast<std::uint32_t>(st.node_info_.size()));
  for (const auto& info : st.node_info_) {
    e.i32(info.used_slots);
    e.i32(info.missed);
    e.boolean(info.marked_dead);
  }
  e.i64(st.launch_seq_);
  e.i64(st.hb_seq_);
  e.boolean(st.heartbeats_on_);
  e.u64(st.hb_sent_);
  e.i32(st.mm_node_);
  e.i64(st.next_round_at_);
  e.i64(st.inspect_at_);
  e.i64(st.inspect_seq_);
  e.boolean(st.inspect_pending_);
}

void StateIO::restoreStorm(Decoder& d, storm::Storm& st) {
  const std::uint32_t n = d.u32();
  if (n != st.node_info_.size()) d.fail("node count mismatch");
  for (auto& info : st.node_info_) {
    info.used_slots = d.i32();
    info.missed = d.i32();
    info.marked_dead = d.boolean();
  }
  st.launch_seq_ = d.i64();
  st.hb_seq_ = d.i64();
  st.heartbeats_on_ = d.boolean();
  st.hb_sent_ = d.u64();
  st.mm_node_ = d.i32();
  st.next_round_at_ = d.i64();
  st.inspect_at_ = d.i64();
  st.inspect_seq_ = d.i64();
  st.inspect_pending_ = d.boolean();
  d.expectEnd();
}

void StateIO::saveVerifier(Encoder& e, const verify::Verifier& v) {
  e.u32(static_cast<std::uint32_t>(v.pending_.size()));
  for (const auto& [key, group] : v.pending_) {
    e.i32(key.first);
    e.i32(key.second);
    e.i32(group.expected);
    e.u32(static_cast<std::uint32_t>(group.entries.size()));
    for (const auto& ent : group.entries) {
      e.i32(ent.rank);
      e.i32(ent.node);
      e.u64(ent.color);
      e.i64(ent.posted_at);
      e.str(ent.signature);
    }
  }
  const verify::VerifyReport& rep = v.report_;
  for (std::uint64_t c : rep.counts) e.u64(c);
  e.u32(static_cast<std::uint32_t>(rep.findings.size()));
  for (const auto& f : rep.findings) {
    e.i32(static_cast<std::int32_t>(f.category));
    e.i64(f.time);
    e.u64(f.slice);
    e.i32(f.node);
    e.i32(f.job);
    e.i32(f.rank);
    e.str(f.detail);
  }
  e.u64(rep.dropped_findings);
  e.u64(rep.collectives_checked);
  e.u64(rep.matches_checked);
  e.boolean(rep.finalized);
}

void StateIO::restoreVerifier(Decoder& d, verify::Verifier& v) {
  const std::uint32_t ngroups = d.u32();
  v.pending_.clear();
  for (std::uint32_t i = 0; i < ngroups; ++i) {
    const int job = d.i32();
    const int gen = d.i32();
    auto& group = v.pending_[{job, gen}];
    group.expected = d.i32();
    const std::uint32_t nentries = d.u32();
    for (std::uint32_t k = 0; k < nentries; ++k) {
      verify::Verifier::ColorEntry ent;
      ent.rank = d.i32();
      ent.node = d.i32();
      ent.color = d.u64();
      ent.posted_at = d.i64();
      ent.signature = d.str();
      group.entries.push_back(std::move(ent));
    }
  }
  verify::VerifyReport& rep = v.report_;
  for (std::uint64_t& c : rep.counts) c = d.u64();
  rep.findings.clear();
  const std::uint32_t nfindings = d.u32();
  for (std::uint32_t i = 0; i < nfindings; ++i) {
    verify::Finding f;
    f.category = static_cast<verify::Category>(d.i32());
    f.time = d.i64();
    f.slice = d.u64();
    f.node = d.i32();
    f.job = d.i32();
    f.rank = d.i32();
    f.detail = d.str();
    rep.findings.push_back(std::move(f));
  }
  rep.dropped_findings = d.u64();
  rep.collectives_checked = d.u64();
  rep.matches_checked = d.u64();
  rep.finalized = d.boolean();
  d.expectEnd();
}

void StateIO::saveRuntime(Encoder& e, const bcsmpi::Runtime& rt,
                          const BufferRegistry& reg) {
  e.u64(rt.control_epoch_);
  e.i32(rt.strobe_node_);
  e.boolean(rt.stop_requested_);
  e.u64(rt.slice_index_);
  e.i64(rt.slice_start_);
  e.u64(rt.phase_seq_);
  e.u64(rt.desc_seq_);
  e.i32(rt.active_ranks_);
  saveIntVec(e, rt.live_compute_nodes_);
  e.u32(static_cast<std::uint32_t>(rt.evicted_.size()));
  for (char c : rt.evicted_) e.u8(static_cast<std::uint8_t>(c));
  e.u32(static_cast<std::uint32_t>(rt.recovery_records_.size()));
  for (const auto& rec : rt.recovery_records_) {
    e.u64(rec.slice);
    e.i64(rec.time);
    e.boolean(rec.quiescent);
    e.u32(static_cast<std::uint32_t>(rec.jobs.size()));
    for (const auto& js : rec.jobs) {
      e.i32(js.job);
      e.i32(js.ranks);
      e.i32(js.finished_ranks);
      e.u64(js.requests_posted);
      e.u64(js.requests_completed);
    }
    e.u32(static_cast<std::uint32_t>(rec.nodes.size()));
    for (const auto& ns : rec.nodes) {
      e.i32(ns.node);
      e.u64(ns.fresh_sends);
      e.u64(ns.fresh_recvs);
      e.u64(ns.unmatched_remote);
      e.u64(ns.unmatched_recvs);
      e.u64(ns.partial_messages);
      e.u64(ns.partial_bytes_moved);
    }
  }
  const bcsmpi::RuntimeStats& s = rt.stats_;
  for (std::uint64_t v :
       {s.slices, s.microstrobes, s.descriptors_exchanged, s.matches,
        s.chunks_transferred, s.collectives_scheduled, s.slice_overruns,
        s.retransmits, s.requests_failed, s.evictions, s.recovery_slices,
        s.watchdog_fires, s.elections, s.rejoins, s.tree_levels,
        s.coalesced_acks, s.fanout_msgs_per_slice, s.checkpoints_taken,
        s.restores}) {
    e.u64(v);
  }
  e.u32(static_cast<std::uint32_t>(rt.jobs_.size()));
  for (const auto& js : rt.jobs_) {
    saveIntVec(e, js.node_of_rank);
    saveIntVec(e, js.nodes);
    e.i32(js.registered);
    e.i32(js.finished);
    e.boolean(js.degraded);
    e.u32(static_cast<std::uint32_t>(js.ranks.size()));
    for (const auto& rs : js.ranks) {
      e.boolean(rs.detached);
      e.boolean(rs.finished);
      e.u64(rs.next_req);
      e.i32(rs.next_coll_gen);
      e.u64(rs.requests_completed);
      std::vector<std::uint64_t> keys;
      keys.reserve(rs.requests.size());
      for (const auto& [id, info] : rs.requests) keys.push_back(id);
      std::sort(keys.begin(), keys.end());
      e.u32(static_cast<std::uint32_t>(keys.size()));
      for (std::uint64_t id : keys) {
        const auto& info = rs.requests.at(id);
        e.u64(id);
        e.boolean(info.complete);
        e.boolean(info.spin_waited);
        e.i32(info.status.source);
        e.i32(info.status.tag);
        e.u64(info.status.bytes);
        e.i32(info.status.error);
      }
    }
  }
  e.u32(static_cast<std::uint32_t>(rt.nodes_.size()));
  for (const auto& ns : rt.nodes_) {
    e.u32(static_cast<std::uint32_t>(ns.bs_fresh.size()));
    for (const auto& d : ns.bs_fresh) saveSend(e, reg, d);
    e.u32(static_cast<std::uint32_t>(ns.bs_retry.size()));
    for (const auto& d : ns.bs_retry) saveSend(e, reg, d);
    e.u32(static_cast<std::uint32_t>(ns.remote_sends.size()));
    ns.remote_sends.forEach(
        [&](const bcsmpi::SendDescriptor& d) { saveSend(e, reg, d); });
    e.u32(static_cast<std::uint32_t>(ns.recv_fresh.size()));
    for (const auto& d : ns.recv_fresh) saveRecv(e, reg, d);
    e.u32(static_cast<std::uint32_t>(ns.recv_eligible.size()));
    ns.recv_eligible.forEach(
        [&](const bcsmpi::RecvDescriptor& d) { saveRecv(e, reg, d); });
    e.u32(static_cast<std::uint32_t>(ns.match_queue.size()));
    for (const auto& m : ns.match_queue) {
      saveSend(e, reg, m.send);
      saveRecv(e, reg, m.recv);
      e.u64(m.offset);
    }
    e.u32(static_cast<std::uint32_t>(ns.slice_gets.size()));
    for (const auto& g : ns.slice_gets) {
      e.i32(g.src_node);
      reg.saveRef(e, g.src);
      reg.saveRef(e, g.dst);
      e.u64(g.bytes);
      e.boolean(g.final_chunk);
      e.i32(g.job);
      e.i32(g.src_rank);
      e.i32(g.dst_rank);
      e.i32(g.tag);
      e.u64(g.message_bytes);
      e.u64(g.send_req);
      e.u64(g.recv_req);
    }
    // chunk_progress is an unordered_map; serialize in sorted key order so
    // the snapshot bytes are deterministic.
    std::vector<std::pair<bcsmpi::Runtime::ProgressKey, std::size_t>> prog(
        ns.chunk_progress.begin(), ns.chunk_progress.end());
    std::sort(prog.begin(), prog.end(), [](const auto& a, const auto& b) {
      return std::tie(a.first.job, a.first.dst_rank, a.first.recv_req) <
             std::tie(b.first.job, b.first.dst_rank, b.first.recv_req);
    });
    e.u32(static_cast<std::uint32_t>(prog.size()));
    for (const auto& [key, bytes] : prog) {
      e.i32(key.job);
      e.i32(key.dst_rank);
      e.u64(key.recv_req);
      e.u64(bytes);
    }
    e.u32(static_cast<std::uint32_t>(ns.wake_list.size()));
    for (const auto& [job, rank] : ns.wake_list) {
      e.i32(job);
      e.i32(rank);
    }
    e.u32(static_cast<std::uint32_t>(ns.probe_waiters.size()));
    for (const auto& [job, rank] : ns.probe_waiters) {
      e.i32(job);
      e.i32(rank);
    }
    e.u64(ns.phase_seq);
    e.i32(ns.outstanding);
    e.boolean(ns.tree_floor);
    e.boolean(ns.tree_drain);
    e.i64(ns.last_strobe);
    e.boolean(ns.watchdog_armed);
    e.i64(ns.watchdog_at);
  }
  e.u32(static_cast<std::uint32_t>(rt.tree_racks_.size()));
  for (const auto& rack : rt.tree_racks_) {
    e.u64(rack.seq);
    e.u64(rack.acked_seq);
    e.i32(rack.pending);
  }
  e.i32(static_cast<std::int32_t>(rt.tree_phase_));
  e.boolean(rt.tree_phase_open_);
  e.boolean(rt.tree_recovering_);
  const int racks = rt.sstree_.enabled() ? rt.sstree_.rackCount() : 0;
  e.u32(static_cast<std::uint32_t>(racks));
  for (int r = 0; r < racks; ++r) e.i32(rt.sstree_.ss(r));
}

void StateIO::restoreRuntime(Decoder& d, bcsmpi::Runtime& rt,
                             const BufferRegistry& reg) {
  rt.control_epoch_ = d.u64();
  rt.strobe_node_ = d.i32();
  rt.stop_requested_ = d.boolean();
  rt.slice_index_ = d.u64();
  rt.slice_start_ = d.i64();
  rt.phase_seq_ = d.u64();
  rt.desc_seq_ = d.u64();
  rt.active_ranks_ = d.i32();
  rt.live_compute_nodes_ = loadIntVec(d);
  const std::uint32_t nevicted = d.u32();
  if (nevicted != rt.evicted_.size()) d.fail("evicted-set size mismatch");
  for (char& c : rt.evicted_) c = static_cast<char>(d.u8());
  rt.recovery_records_.clear();
  const std::uint32_t nrecords = d.u32();
  for (std::uint32_t i = 0; i < nrecords; ++i) {
    bcsmpi::CheckpointRecord rec;
    rec.slice = d.u64();
    rec.time = d.i64();
    rec.quiescent = d.boolean();
    const std::uint32_t njobs = d.u32();
    for (std::uint32_t j = 0; j < njobs; ++j) {
      bcsmpi::CheckpointRecord::JobSnapshot js;
      js.job = d.i32();
      js.ranks = d.i32();
      js.finished_ranks = d.i32();
      js.requests_posted = d.u64();
      js.requests_completed = d.u64();
      rec.jobs.push_back(js);
    }
    const std::uint32_t nnodes = d.u32();
    for (std::uint32_t n = 0; n < nnodes; ++n) {
      bcsmpi::CheckpointRecord::NodeSnapshot ns;
      ns.node = d.i32();
      ns.fresh_sends = d.u64();
      ns.fresh_recvs = d.u64();
      ns.unmatched_remote = d.u64();
      ns.unmatched_recvs = d.u64();
      ns.partial_messages = d.u64();
      ns.partial_bytes_moved = d.u64();
      rec.nodes.push_back(ns);
    }
    rt.recovery_records_.push_back(std::move(rec));
  }
  bcsmpi::RuntimeStats& s = rt.stats_;
  for (std::uint64_t* v :
       {&s.slices, &s.microstrobes, &s.descriptors_exchanged, &s.matches,
        &s.chunks_transferred, &s.collectives_scheduled, &s.slice_overruns,
        &s.retransmits, &s.requests_failed, &s.evictions, &s.recovery_slices,
        &s.watchdog_fires, &s.elections, &s.rejoins, &s.tree_levels,
        &s.coalesced_acks, &s.fanout_msgs_per_slice, &s.checkpoints_taken,
        &s.restores}) {
    *v = d.u64();
  }
  const std::uint32_t njobs = d.u32();
  if (njobs != rt.jobs_.size()) d.fail("job count mismatch");
  for (auto& js : rt.jobs_) {
    js.node_of_rank = loadIntVec(d);
    js.nodes = loadIntVec(d);
    js.registered = d.i32();
    js.finished = d.i32();
    js.degraded = d.boolean();
    const std::uint32_t nranks = d.u32();
    if (nranks != js.ranks.size()) d.fail("rank count mismatch");
    for (auto& rs : js.ranks) {
      rs.proc = nullptr;
      rs.detached = d.boolean();
      rs.finished = d.boolean();
      rs.next_req = d.u64();
      rs.next_coll_gen = d.i32();
      rs.requests_completed = d.u64();
      rs.requests.clear();
      const std::uint32_t nreqs = d.u32();
      for (std::uint32_t i = 0; i < nreqs; ++i) {
        const std::uint64_t id = d.u64();
        auto& info = rs.requests[id];
        info.complete = d.boolean();
        info.spin_waited = d.boolean();
        info.status.source = d.i32();
        info.status.tag = d.i32();
        info.status.bytes = d.u64();
        info.status.error = d.i32();
      }
    }
  }
  const std::uint32_t nnodes = d.u32();
  if (nnodes != rt.nodes_.size()) d.fail("node count mismatch");
  for (auto& ns : rt.nodes_) {
    ns.bs_fresh.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      ns.bs_fresh.push_back(loadSend(d, reg));
    }
    ns.bs_retry.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      ns.bs_retry.push_back(loadSend(d, reg));
    }
    ns.remote_sends.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      ns.remote_sends.insert(loadSend(d, reg));
    }
    ns.recv_fresh.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      ns.recv_fresh.push_back(loadRecv(d, reg));
    }
    ns.recv_eligible.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      ns.recv_eligible.insert(loadRecv(d, reg));
    }
    ns.match_queue.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      bcsmpi::MatchDescriptor m;
      m.send = loadSend(d, reg);
      m.recv = loadRecv(d, reg);
      m.offset = d.u64();
      ns.match_queue.push_back(std::move(m));
    }
    ns.slice_gets.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      bcsmpi::Runtime::GetOp g;
      g.src_node = d.i32();
      g.src = reg.loadRef(d);
      g.dst = reg.loadRef(d);
      g.bytes = d.u64();
      g.final_chunk = d.boolean();
      g.job = d.i32();
      g.src_rank = d.i32();
      g.dst_rank = d.i32();
      g.tag = d.i32();
      g.message_bytes = d.u64();
      g.send_req = d.u64();
      g.recv_req = d.u64();
      ns.slice_gets.push_back(g);
    }
    ns.chunk_progress.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      bcsmpi::Runtime::ProgressKey key;
      key.job = d.i32();
      key.dst_rank = d.i32();
      key.recv_req = d.u64();
      ns.chunk_progress[key] = d.u64();
    }
    ns.wake_list.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      const int job = d.i32();
      const int rank = d.i32();
      ns.wake_list.emplace_back(job, rank);
    }
    ns.probe_waiters.clear();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      const int job = d.i32();
      const int rank = d.i32();
      ns.probe_waiters.emplace_back(job, rank);
    }
    ns.phase_seq = d.u64();
    ns.outstanding = d.i32();
    ns.tree_floor = d.boolean();
    ns.tree_drain = d.boolean();
    ns.last_strobe = d.i64();
    ns.watchdog_armed = d.boolean();
    ns.watchdog_at = d.i64();
  }
  const std::uint32_t nracks = d.u32();
  if (nracks != rt.tree_racks_.size()) d.fail("tree rack count mismatch");
  for (auto& rack : rt.tree_racks_) {
    rack.seq = d.u64();
    rack.acked_seq = d.u64();
    rack.pending = d.i32();
  }
  rt.tree_phase_ = static_cast<bcsmpi::Phase>(d.i32());
  rt.tree_phase_open_ = d.boolean();
  rt.tree_recovering_ = d.boolean();
  const std::uint32_t ss_racks = d.u32();
  const std::uint32_t fresh_racks = static_cast<std::uint32_t>(
      rt.sstree_.enabled() ? rt.sstree_.rackCount() : 0);
  if (ss_racks != fresh_racks) d.fail("SS-tree rack count mismatch");
  if (rt.sstree_.enabled()) {
    // Membership first (derived from the evicted set), then roles.
    for (std::size_t n = 0; n < rt.evicted_.size(); ++n) {
      if (rt.evicted_[n]) rt.sstree_.evict(static_cast<int>(n));
    }
    for (std::uint32_t r = 0; r < ss_racks; ++r) {
      const int ss = d.i32();
      if (ss != -1 && ss != rt.sstree_.ss(static_cast<int>(r))) {
        rt.sstree_.setSs(static_cast<int>(r), ss);
      }
    }
  }
  d.expectEnd();
}

void StateIO::saveWorkload(Encoder& e, const DetachedRing& wl) {
  e.u32(static_cast<std::uint32_t>(wl.sms_.size()));
  for (const auto& sm : wl.sms_) {
    e.i32(sm.round);
    e.boolean(sm.waiting);
    e.u64(sm.send_req);
    e.u64(sm.recv_req);
    e.boolean(sm.send_done);
    e.boolean(sm.recv_done);
    e.i64(sm.next_tick_at);
    e.boolean(sm.finished);
  }
  e.i32(wl.finished_count_);
}

void StateIO::restoreWorkload(Decoder& d, DetachedRing& wl) {
  const std::uint32_t n = d.u32();
  if (n != wl.sms_.size()) d.fail("rank count mismatch");
  for (auto& sm : wl.sms_) {
    sm.round = d.i32();
    sm.waiting = d.boolean();
    sm.send_req = d.u64();
    sm.recv_req = d.u64();
    sm.send_done = d.boolean();
    sm.recv_done = d.boolean();
    sm.next_tick_at = d.i64();
    sm.finished = d.boolean();
  }
  wl.finished_count_ = d.i32();
  d.expectEnd();
}

void StateIO::saveAll(Simulation& sim, SnapshotWriter& w) {
  sim::Engine& eng = sim.cluster->engine();
  bcsmpi::Runtime& rt = *sim.runtime;
  const BufferRegistry& reg = *sim.registry;

  {
    Encoder e;
    e.i64(eng.now());
    e.u64(rt.slice_index_);
    e.u64(sim.cluster->trace().dump().size());
    e.u64(sim.cluster->trace().records().size());
    e.boolean(sim.storm != nullptr);
    e.boolean(rt.verifier_ != nullptr);
    w.addSection("meta", e.data());
  }
  {
    Encoder e;
    e.i64(eng.now_);
    // Format version 1 stores a shard count, one key counter per shard and
    // a trailing counter for cross-shard events.  The engine has one key
    // counter, which is exactly what a one-shard run wrote: a shard count
    // of 1, the counter, and a trailing counter that never left 1.
    e.u32(1);
    e.u64(eng.next_key_);
    e.u64(1);
    e.u64(eng.executed_);
    e.u64(eng.cancelled_);
    e.u64(eng.dropped_tombstones_);
    w.addSection("engine", e.data());
  }
  {
    Encoder e;
    for (std::uint64_t word : sim.cluster->rng().state_) e.u64(word);
    w.addSection("rng", e.data());
  }
  {
    Encoder e;
    sim::FaultInjector& fi = *sim.cluster->faults();
    for (std::uint64_t word : fi.rng_.state_) e.u64(word);
    e.u64(fi.stats_.drops);
    e.u64(fi.stats_.degrades);
    e.u64(fi.stats_.forced_down);
    // Faults forced at run time (Storm::killNode & co.) live past the
    // configured plan entries; a restore re-appends them onto whatever plan
    // the branch supplies.
    const std::size_t base = sim.spec.cluster.faults.node_faults.size();
    const auto& all = fi.plan_.node_faults;
    e.u32(static_cast<std::uint32_t>(all.size() - base));
    for (std::size_t i = base; i < all.size(); ++i) {
      e.i32(all[i].node);
      e.i64(all[i].at);
      e.i64(all[i].hang);
    }
    w.addSection("fault", e.data());
  }
  {
    Encoder e;
    net::Fabric& f = sim.cluster->fabric();
    e.u32(static_cast<std::uint32_t>(f.endpoints_.size()));
    for (const auto& ep : f.endpoints_) {
      e.i64(ep.egress_free);
      e.i64(ep.ingress_free);
    }
    const net::FabricStats s = f.stats();
    for (std::uint64_t v : {s.unicasts, s.multicasts, s.conditionals,
                            s.payload_bytes, s.drops, s.failed_sends,
                            s.suppressed_deliveries,
                            s.suppressed_conditionals}) {
      e.u64(v);
    }
    w.addSection("fabric", e.data());
  }
  {
    Encoder e;
    saveCore(e, rt.core_);
    w.addSection("core.runtime", e.data());
  }
  {
    Encoder e;
    saveRuntime(e, rt, reg);
    w.addSection("runtime", e.data());
  }
  if (sim.storm) {
    {
      Encoder e;
      saveCore(e, sim.storm->core_);
      w.addSection("core.storm", e.data());
    }
    Encoder e;
    saveStorm(e, *sim.storm);
    w.addSection("storm", e.data());
  }
  if (rt.verifier_) {
    Encoder e;
    saveVerifier(e, *rt.verifier_);
    w.addSection("verify", e.data());
  }
  {
    Encoder e;
    saveWorkload(e, *sim.workload);
    w.addSection("workload", e.data());
  }
  {
    Encoder e;
    reg.saveContents(e);
    w.addSection("buffers", e.data());
  }
}

void StateIO::restoreAll(Simulation& sim, const SnapshotReader& r) {
  sim::Engine& eng = sim.cluster->engine();
  bcsmpi::Runtime& rt = *sim.runtime;

  const std::string meta_raw = r.section("meta");
  Decoder meta(meta_raw, "meta");
  const sim::SimTime now = meta.i64();
  meta.u64();  // slice index (informational; restored with the runtime)
  meta.u64();  // trace dump bytes at capture
  meta.u64();  // trace record count at capture
  const bool with_storm = meta.boolean();
  const bool with_verify = meta.boolean();
  meta.expectEnd();
  if (with_storm != (sim.storm != nullptr)) {
    meta.fail("snapshot and scenario disagree on STORM presence");
  }
  if (with_verify != (rt.verifier_ != nullptr)) {
    meta.fail("snapshot and scenario disagree on the verifier");
  }

  {
    const std::string raw = r.section("engine");
    Decoder d(raw, "engine");
    eng.now_ = d.i64();
    if (eng.now_ != now) d.fail("engine clock disagrees with meta");
    eng.base_ = static_cast<std::uint64_t>(eng.now_) >>
                sim::Engine::kBucketShift;
    // Only a sharded run could have written anything but one shard and a
    // trailing counter of 1 (see saveAll).
    if (d.u32() != 1) d.fail("snapshot was taken from a sharded run");
    eng.next_key_ = d.u64();
    if (d.u64() != 1) d.fail("snapshot was taken from a sharded run");
    eng.executed_ = d.u64();
    eng.cancelled_ = d.u64();
    eng.dropped_tombstones_ = d.u64();
    d.expectEnd();
  }
  {
    const std::string raw = r.section("rng");
    Decoder d(raw, "rng");
    for (std::uint64_t& word : sim.cluster->rng().state_) word = d.u64();
    d.expectEnd();
  }
  {
    const std::string raw = r.section("fault");
    Decoder d(raw, "fault");
    sim::FaultInjector& fi = *sim.cluster->faults();
    for (std::uint64_t& word : fi.rng_.state_) word = d.u64();
    fi.stats_.drops = d.u64();
    fi.stats_.degrades = d.u64();
    fi.stats_.forced_down = d.u64();
    for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
      sim::FaultPlan::NodeFault nf;
      nf.node = d.i32();
      nf.at = d.i64();
      nf.hang = d.i64();
      fi.plan_.node_faults.push_back(nf);
    }
    d.expectEnd();
  }
  {
    const std::string raw = r.section("fabric");
    Decoder d(raw, "fabric");
    net::Fabric& f = sim.cluster->fabric();
    const std::uint32_t n = d.u32();
    if (n != f.endpoints_.size()) d.fail("endpoint count mismatch");
    for (auto& ep : f.endpoints_) {
      f.setFree(ep.egress_free, d.i64());
      f.setFree(ep.ingress_free, d.i64());
    }
    net::FabricStats& s = f.stats_;
    s.unicasts = d.u64();
    s.multicasts = d.u64();
    s.conditionals = d.u64();
    s.payload_bytes = d.u64();
    s.drops = d.u64();
    s.failed_sends = d.u64();
    s.suppressed_deliveries = d.u64();
    s.suppressed_conditionals = d.u64();
    d.expectEnd();
  }
  {
    const std::string raw = r.section("core.runtime");
    Decoder d(raw, "core.runtime");
    restoreCore(d, rt.core_);
  }
  {
    const std::string raw = r.section("runtime");
    Decoder d(raw, "runtime");
    restoreRuntime(d, rt, *sim.registry);
  }
  if (sim.storm) {
    {
      const std::string raw = r.section("core.storm");
      Decoder d(raw, "core.storm");
      restoreCore(d, sim.storm->core_);
    }
    const std::string raw = r.section("storm");
    Decoder d(raw, "storm");
    restoreStorm(d, *sim.storm);
  }
  if (rt.verifier_) {
    const std::string raw = r.section("verify");
    Decoder d(raw, "verify");
    restoreVerifier(d, *rt.verifier_);
  }
  {
    const std::string raw = r.section("workload");
    Decoder d(raw, "workload");
    restoreWorkload(d, *sim.workload);
  }
  {
    const std::string raw = r.section("buffers");
    Decoder d(raw, "buffers");
    sim.registry->restoreContents(d);
    d.expectEnd();
  }

  // ---- Re-arm timers (engine clock already warped to the capture instant).
  // All re-armed deadlines are pairwise distinct by the off-grid cadence
  // argument (DESIGN.md §8), so only one ordering property matters: every
  // re-armed event draws its sequence number before the resume event fires,
  // hence before anything the continuation schedules — matching the
  // interrupted run, where all pending events were armed before the
  // boundary.

  // Slice watchdogs: re-arming them files the runtime's one watchdog timer
  // at the earliest deadline.  A deadline on a slice boundary still fires
  // before that boundary's startSlice, whose key the continuation draws.
  for (int n : rt.all_compute_nodes_) {
    auto& ns = rt.nodes_[static_cast<std::size_t>(n)];
    if (!ns.watchdog_armed) continue;
    ns.watchdog_armed = false;
    rt.armWatchdogAt(n, ns.watchdog_at);
  }

  // STORM heartbeat chain: the pending inspection first, then the next
  // round — the order heartbeatRound arms them in.
  if (sim.storm) {
    storm::Storm& st = *sim.storm;
    if (st.inspect_pending_) {
      eng.at(st.inspect_at_, [sp = sim.storm.get(), seq = st.inspect_seq_] {
        sp->inspectRound(seq);
      });
    }
    if (st.next_round_at_ > now) st.scheduleRound(st.next_round_at_);
  }

  // Workload ticks, rank-ascending.
  for (std::size_t r = 0; r < sim.workload->sms_.size(); ++r) {
    const auto& sm = sim.workload->sms_[r];
    if (sm.finished) continue;
    sim.workload->armTick(static_cast<int>(r), sm.next_tick_at);
  }

  ++rt.stats_.restores;

  // The resume event: runs the post-capture tail of the slice boundary.
  eng.at(now, [rp = sim.runtime.get()] { rp->resumeFromRestore(); });
}

}  // namespace bcs::snapshot
