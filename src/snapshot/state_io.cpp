#include "snapshot/state_io.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace bcs::snapshot {

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
// Field lists
// ---------------------------------------------------------------------------

template <class Ar>
void StateIO::fields(Ar& a, Meta& m) {
  a(m.now, m.slice, m.trace_bytes, m.trace_records, m.with_storm,
    m.with_verify);
}

template <class Ar>
void StateIO::fields(Ar& a, core::BcsCore& c) {
  a.sameSize(c.vars_, "global-variable", [&a](auto& replicas) {
    a.sameSize(replicas, "variable replica");
  });
  a.sameSize(c.events_, "event", [&a](auto& replicas) {
    a.sameSize(replicas, "event replica", [&a](auto& ev) { a(ev.pending); });
  });
}

template <class Ar>
void StateIO::fields(Ar& a, storm::Storm& st) {
  a.sameSize(st.node_info_, "node", [&a](auto& info) {
    a(info.used_slots, info.missed, info.marked_dead);
  });
  a(st.launch_seq_, st.hb_seq_, st.heartbeats_on_, st.hb_sent_, st.mm_node_,
    st.next_round_at_, st.inspect_at_, st.inspect_seq_, st.inspect_pending_);
}

template <class Ar>
void StateIO::fields(Ar& a, verify::Verifier& v) {
  a.list(v.pending_, [&a](auto& group) {  // ((job, generation), group)
    a(group.first, group.second.expected);
    a.list(group.second.entries, [&a](auto& ent) {
      a(ent.rank, ent.node, ent.color, ent.posted_at, ent.signature);
    });
  });
  verify::VerifyReport& rep = v.report_;
  a(rep.counts);
  a.list(rep.findings, [&a](auto& f) {
    a(f.category, f.time, f.slice, f.node, f.job, f.rank, f.detail);
  });
  a(rep.dropped_findings, rep.collectives_checked, rep.matches_checked,
    rep.finalized);
}

template <class Ar>
void StateIO::fields(Ar& a, bcsmpi::Runtime& rt, const BufferRegistry& reg) {
  a(rt.control_epoch_, rt.strobe_node_, rt.stop_requested_, rt.slice_index_,
    rt.slice_start_, rt.phase_seq_, rt.desc_seq_, rt.active_ranks_);
  a.list(rt.live_compute_nodes_);
  a.sameSize(rt.evicted_, "evicted-set");
  a.list(rt.recovery_records_, [&a](auto& rec) {
    a(rec.slice, rec.time, rec.quiescent);
    a.list(rec.jobs, [&a](auto& js) {
      a(js.job, js.ranks, js.finished_ranks, js.requests_posted,
        js.requests_completed);
    });
    a.list(rec.nodes, [&a](auto& ns) {
      a(ns.node, ns.fresh_sends, ns.fresh_recvs, ns.unmatched_remote,
        ns.unmatched_recvs, ns.partial_messages, ns.partial_bytes_moved);
    });
  });
  // The 19 counters format version 1 stores (not rma_ops or rma_batches).
  bcsmpi::RuntimeStats& s = rt.stats_;
  a(s.slices, s.microstrobes, s.descriptors_exchanged, s.matches,
    s.chunks_transferred, s.collectives_scheduled, s.slice_overruns,
    s.retransmits, s.requests_failed, s.evictions, s.recovery_slices,
    s.watchdog_fires, s.elections, s.rejoins, s.tree_levels, s.coalesced_acks,
    s.fanout_msgs_per_slice, s.checkpoints_taken, s.restores);
  a.sameSize(rt.jobs_, "job", [&a](auto& js) {
    a.list(js.node_of_rank);
    a.list(js.nodes);
    a(js.registered, js.finished, js.degraded);
    a.sameSize(js.ranks, "rank", [&a](auto& rs) {
      a(rs.detached, rs.finished, rs.next_req, rs.next_coll_gen,
        rs.requests_completed);
      a.list(rs.requests, [&a](auto& req) {  // (id, info), in id order
        auto& [id, info] = req;
        a(id, info.complete, info.spin_waited, info.status.source,
          info.status.tag, info.status.bytes, info.status.error);
      });
    });
  });

  // Descriptors and GetOps hold buffer pointers; `reg` swizzles them.
  auto send = [&a, &reg](auto& d) {
    a(d.job, d.src_rank, d.dst_rank, d.tag);
    reg.ref(a, d.data);
    a(d.bytes, d.request, d.posted_at, d.seq, d.retries);
  };
  auto recv = [&a, &reg](auto& d) {
    a(d.job, d.dst_rank, d.want_src, d.want_tag);
    reg.ref(a, d.data);
    a(d.bytes, d.request, d.posted_at, d.seq);
  };
  std::size_t node = 0;
  a.sameSize(rt.nodes_, "node", [&](auto& ns) {
    a.list(ns.bs_fresh, send);
    a.list(ns.bs_retry, send);
    a.list(ns.remote_sends, send);
    a.list(ns.recv_fresh, recv);
    a.list(ns.recv_eligible, recv);
    a.list(ns.match_queue, [&](auto& m) {
      send(m.send);
      recv(m.recv);
      a(m.offset);
    });
    a.list(ns.slice_gets, [&](auto& g) {
      a(g.src_node);
      reg.ref(a, g.src);
      reg.ref(a, g.dst);
      a(g.bytes, g.final_chunk, g.job, g.src_rank, g.dst_rank, g.tag,
        g.message_bytes, g.send_req, g.recv_req);
    });
    a.list(ns.chunk_progress, [&a](auto& entry) {  // in key order
      auto& [key, bytes] = entry;
      a(key.job, key.dst_rank, key.recv_req, bytes);
    });
    a.list(ns.wake_list);
    a.list(ns.probe_waiters);
    auto& c = *rt.ctl_;
    a(c.phase_seq[node], c.outstanding[node], c.tree_floor[node],
      c.tree_drain[node], c.last_strobe[node], c.watchdog_armed[node],
      c.watchdog_at[node]);
    ++node;
  });
  a.sameSize(rt.tree_racks_, "tree rack",
             [&a](auto& rack) { a(rack.seq, rack.acked_seq, rack.pending); });
  a(rt.tree_phase_, rt.tree_phase_open_, rt.tree_recovering_);

  // SS-tree roles, one per rack (none when the control plane is flat).
  storm::SsTree& tree = rt.sstree_;
  std::vector<int> roles(tree.enabled() ? tree.rackCount() : 0);
  for (std::size_t r = 0; r < roles.size(); ++r) {
    roles[r] = tree.ss(static_cast<int>(r));
  }
  a.sameSize(roles, "SS-tree rack");
  if constexpr (Ar::kLoading) {
    // Membership first (derived from the evicted set), then roles.  A flat
    // runtime's tree has no racks to evict from.
    if (tree.enabled()) {
      for (std::size_t n = 0; n < rt.evicted_.size(); ++n) {
        if (rt.evicted_[n]) tree.evict(static_cast<int>(n));
      }
      for (std::size_t r = 0; r < roles.size(); ++r) {
        const int rack = static_cast<int>(r);
        if (roles[r] != -1 && roles[r] != tree.ss(rack)) {
          tree.setSs(rack, roles[r]);
        }
      }
    }
  }
}

template <class Ar>
void StateIO::fields(Ar& a, DetachedRing& wl) {
  a.sameSize(wl.sms_, "rank", [&a](auto& sm) {
    a(sm.round, sm.waiting, sm.send_req, sm.recv_req, sm.send_done,
      sm.recv_done, sm.next_tick_at, sm.finished);
  });
  a(wl.finished_count_);
}

template <class Ar, class Section>
void StateIO::sections(Simulation& sim, Section&& section) {
  sim::Engine& eng = sim.cluster->engine();
  bcsmpi::Runtime& rt = *sim.runtime;
  const sim::Trace& trace = sim.cluster->trace();

  Meta meta{eng.now(),           rt.slice_index_,
            trace.dumpBytes(),   trace.records().size(),
            sim.storm != nullptr, rt.verifier_ != nullptr};
  section("meta", [&](Ar& a) {
    fields(a, meta);
    if constexpr (Ar::kLoading) {
      if (meta.with_storm != (sim.storm != nullptr)) {
        a.fail("snapshot and scenario disagree on STORM presence");
      }
      if (meta.with_verify != (rt.verifier_ != nullptr)) {
        a.fail("snapshot and scenario disagree on the verifier");
      }
    }
  });
  section("engine", [&](Ar& a) {
    // Format version 1 stores a shard count, one key counter per shard and
    // a trailing counter for cross-shard events.  The engine has one key
    // counter, which is exactly what a one-shard run wrote: a shard count of
    // 1, the counter, and a trailing counter that never left 1.
    std::uint32_t shards = 1;
    std::uint64_t trailing = 1;
    a(eng.now_, shards, eng.next_key_, trailing, eng.executed_,
      eng.cancelled_, eng.dropped_tombstones_);
    if constexpr (Ar::kLoading) {
      if (eng.now_ != meta.now) a.fail("engine clock disagrees with meta");
      if (shards != 1 || trailing != 1) {
        a.fail("snapshot was taken from a sharded run");
      }
      eng.base_ = static_cast<std::uint64_t>(eng.now_) >>
                  sim::Engine::kBucketShift;
    }
  });
  section("rng", [&](Ar& a) { a(sim.cluster->rng().state_); });
  section("fault", [&](Ar& a) {
    sim::FaultInjector& fi = *sim.cluster->faults();
    a(fi.rng_.state_, fi.stats_.drops, fi.stats_.degrades,
      fi.stats_.forced_down);
    // Faults forced at run time (Storm::killNode & co.) live past the
    // configured plan entries; a restore appends them to whatever plan the
    // branch supplies.
    auto& plan = fi.plan_.node_faults;
    std::vector<sim::FaultPlan::NodeFault> forced(
        plan.begin() + static_cast<std::ptrdiff_t>(
                           sim.spec.cluster.faults.node_faults.size()),
        plan.end());
    a.list(forced, [&a](auto& f) { a(f.node, f.at, f.hang); });
    if constexpr (Ar::kLoading) {
      plan.insert(plan.end(), forced.begin(), forced.end());
    }
  });
  section("fabric", [&](Ar& a) {
    net::Fabric& f = sim.cluster->fabric();
    a.sameSize(f.endpoints_, "endpoint", [&](auto& ep) {
      // A free-time before the capture instant is stored as the instant:
      // no transfer issued from there on can tell them apart, and a
      // replayed slice leaves earlier ones than a simulated one (DESIGN.md
      // §8).
      sim::SimTime egress = std::max(ep.egress_free, meta.now);
      sim::SimTime ingress = std::max(ep.ingress_free, meta.now);
      a(egress, ingress);
      if constexpr (Ar::kLoading) {  // keeps the fabric's running maximum
        f.setFree(ep.egress_free, egress);
        f.setFree(ep.ingress_free, ingress);
      }
    });
    net::FabricStats& s = f.stats_;
    a(s.unicasts, s.multicasts, s.conditionals, s.payload_bytes, s.drops,
      s.failed_sends, s.suppressed_deliveries, s.suppressed_conditionals);
  });
  section("core.runtime", [&](Ar& a) { fields(a, rt.core_); });
  section("runtime", [&](Ar& a) { fields(a, rt, *sim.registry); });
  if (sim.storm) {
    section("core.storm", [&](Ar& a) { fields(a, sim.storm->core_); });
    section("storm", [&](Ar& a) { fields(a, *sim.storm); });
  }
  if (rt.verifier_) {
    section("verify", [&](Ar& a) { fields(a, *rt.verifier_); });
  }
  section("workload", [&](Ar& a) { fields(a, *sim.workload); });
  section("buffers", [&](Ar& a) { sim.registry->contents(a); });
}

// ---------------------------------------------------------------------------
// Capture and restore
// ---------------------------------------------------------------------------

namespace {

/// Decodes one section: `body` must consume it exactly.
template <class Body>
void loadSection(const SnapshotReader& r, const char* name, Body&& body) {
  const std::string raw = r.section(name);
  Decoder d(raw, name);
  body(d);
  d.expectEnd();
}

}  // namespace

void StateIO::saveAll(Simulation& sim, SnapshotWriter& w) {
  sections<Encoder>(sim, [&w](const char* name, auto&& body) {
    Encoder e;
    body(e);
    w.addSection(name, e.data());
  });
}

StateIO::Meta StateIO::readMeta(const SnapshotReader& r) {
  Meta m;
  loadSection(r, "meta", [&m](Decoder& d) { fields(d, m); });
  return m;
}

void StateIO::restoreAll(Simulation& sim, const SnapshotReader& r) {
  sections<Decoder>(sim, [&r](const char* name, auto&& body) {
    loadSection(r, name, body);
  });

  sim::Engine& eng = sim.cluster->engine();
  bcsmpi::Runtime& rt = *sim.runtime;
  const sim::SimTime now = eng.now();  // the capture instant, checked

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
    if (!rt.ctl_->watchdog_armed[n]) continue;
    rt.ctl_->watchdog_armed[n] = false;
    rt.armWatchdogAt(n, rt.ctl_->watchdog_at[n]);
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
