#include "verify/verify.hpp"

#include <algorithm>

#include "mpi/types.hpp"

namespace bcs::verify {

namespace {

// Local copy of the collective-type names: bcs_verify sits *below*
// bcs_bcsmpi in the link order, so it cannot use the runtime's
// collectiveTypeName definition.
const char* collName(bcsmpi::CollectiveType t) {
  switch (t) {
    case bcsmpi::CollectiveType::kBarrier: return "barrier";
    case bcsmpi::CollectiveType::kBcast: return "bcast";
    case bcsmpi::CollectiveType::kReduce: return "reduce";
    case bcsmpi::CollectiveType::kAllreduce: return "allreduce";
  }
  return "?";
}

// Same story for the RMA kind names (rmaKindName lives in bcs_bcsmpi).
const char* rmaName(bcsmpi::RmaKind k) {
  switch (k) {
    case bcsmpi::RmaKind::kPut: return "put";
    case bcsmpi::RmaKind::kGet: return "get";
    case bcsmpi::RmaKind::kFetchAdd: return "fetch-add";
  }
  return "?";
}

/// FNV-1a over the operation signature: the per-rank collective *color*.
/// Two ranks that called the same operation with agreeing parameters get
/// the same color; the divergence check is color equality.
std::uint64_t collectiveColor(const bcsmpi::CollectiveDescriptor& d) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t v : {static_cast<std::uint64_t>(d.type),
                          static_cast<std::uint64_t>(d.gen),
                          static_cast<std::uint64_t>(d.root),
                          static_cast<std::uint64_t>(d.count),
                          static_cast<std::uint64_t>(d.dt),
                          static_cast<std::uint64_t>(d.op)}) {
    h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

std::string collectiveSignature(const bcsmpi::CollectiveDescriptor& d) {
  std::string s = collName(d.type);
  s += "(root=" + std::to_string(d.root);
  s += ", count=" + std::to_string(d.count);
  s += ", dt=" + std::string(mpi::datatypeName(d.dt));
  s += ", op=" + std::string(mpi::reduceOpName(d.op));
  s += ")";
  return s;
}

}  // namespace

const char* categoryName(Category c) {
  switch (c) {
    case Category::kCollectiveDivergence: return "collective-divergence";
    case Category::kTruncatedRecv: return "truncated-recv";
    case Category::kWildcardRace: return "wildcard-race";
    case Category::kLeakedDescriptor: return "leaked-descriptor";
    case Category::kUnfinishedRequest: return "unfinished-request";
    case Category::kOrphanedRetransmit: return "orphaned-retransmit";
    case Category::kLeakedAck: return "leaked-coalesced-ack";
    case Category::kEpochRace: return "epoch-race";
  }
  return "?";
}

std::string VerifyReport::render() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  std::string out = "bcs-verify report: ";
  out += clean() ? "clean" : std::to_string(total) + " finding(s)";
  out += finalized ? "" : " (finalize audit not run)";
  out += "\n";
  out += "  collectives checked: " + std::to_string(collectives_checked) +
         ", matches checked: " + std::to_string(matches_checked) + "\n";
  for (int c = 0; c < kNumCategories; ++c) {
    if (counts[static_cast<std::size_t>(c)] == 0) continue;
    out += "  " + std::string(categoryName(static_cast<Category>(c))) + ": " +
           std::to_string(counts[static_cast<std::size_t>(c)]) + "\n";
  }
  for (const Finding& f : findings) {
    out += "  [" + sim::formatTime(f.time) + " slice " +
           std::to_string(f.slice) + "] " + categoryName(f.category);
    if (f.job >= 0) out += " j" + std::to_string(f.job);
    if (f.rank >= 0) out += "/r" + std::to_string(f.rank);
    if (f.node >= 0) out += " n" + std::to_string(f.node);
    out += ": " + f.detail + "\n";
  }
  if (dropped_findings > 0) {
    out += "  (+" + std::to_string(dropped_findings) +
           " finding(s) beyond the retention cap)\n";
  }
  return out;
}

Verifier::Verifier(sim::Trace* trace, std::size_t max_findings)
    : trace_(trace), max_findings_(max_findings) {}

void Verifier::addFinding(Category cat, sim::SimTime now, std::uint64_t slice,
                          int node, int job, int rank, std::string detail) {
  ++report_.counts[static_cast<std::size_t>(cat)];
  // Epoch-race findings get their own trace category so RMA-race tests
  // (and humans grepping traces) can separate them from protocol audits.
  const sim::TraceCategory tc = cat == Category::kEpochRace
                                    ? sim::TraceCategory::kEpochRace
                                    : sim::TraceCategory::kVerify;
  sim::traceRecord(trace_, now, tc, node, [&] {
    return std::string(categoryName(cat)) + ": " + detail;
  });
  if (report_.findings.size() >= max_findings_) {
    ++report_.dropped_findings;
    return;
  }
  Finding f;
  f.category = cat;
  f.time = now;
  f.slice = slice;
  f.node = node;
  f.job = job;
  f.rank = rank;
  f.detail = std::move(detail);
  report_.findings.push_back(std::move(f));
}

void Verifier::onCollectivePosted(std::uint64_t slice, sim::SimTime now,
                                  int node,
                                  const bcsmpi::CollectiveDescriptor& d,
                                  int job_size) {
  (void)slice;
  ColorGroup& g = pending_[{d.job, d.gen}];
  g.expected = job_size;
  ColorEntry e;
  e.rank = d.rank;
  e.node = node;
  e.color = collectiveColor(d);
  e.posted_at = now;
  e.signature = collectiveSignature(d);
  g.entries.push_back(std::move(e));
}

void Verifier::onSliceBoundary(std::uint64_t slice, sim::SimTime now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    const ColorGroup& g = it->second;
    if (static_cast<int>(g.entries.size()) < g.expected) {
      ++it;
      continue;  // some ranks have not reached the call yet
    }
    checkGroup(it->first.first, it->first.second, g, slice, now,
               /*final_audit=*/false);
    it = pending_.erase(it);
  }
}

void Verifier::checkGroup(int job, int gen, const ColorGroup& g,
                          std::uint64_t slice, sim::SimTime now,
                          bool final_audit) {
  // Sort contributions by rank so reports and modal-color selection are
  // independent of posting order.
  std::vector<const ColorEntry*> by_rank;
  by_rank.reserve(g.entries.size());
  for (const ColorEntry& e : g.entries) by_rank.push_back(&e);
  std::sort(by_rank.begin(), by_rank.end(),
            [](const ColorEntry* a, const ColorEntry* b) {
              return a->rank < b->rank;
            });

  // The reference color is the modal one (ties: the lowest rank's), so the
  // report blames the minority — "rank 3 called bcs_reduce while the other
  // 7 called bcs_barrier" reads the right way around.
  std::uint64_t modal = by_rank.front()->color;
  std::size_t modal_count = 0;
  for (const ColorEntry* e : by_rank) {
    std::size_t c = 0;
    for (const ColorEntry* o : by_rank) {
      if (o->color == e->color) ++c;
    }
    if (c > modal_count) {
      modal_count = c;
      modal = e->color;
    }
  }

  const ColorEntry* reference = nullptr;
  std::string offenders;
  int first_offender = -1;
  for (const ColorEntry* e : by_rank) {
    if (e->color == modal) {
      if (!reference) reference = e;
      continue;
    }
    if (first_offender < 0) first_offender = e->rank;
    if (!offenders.empty()) offenders += "; ";
    offenders += "rank " + std::to_string(e->rank) + " called " +
                 e->signature + " at " + sim::formatTime(e->posted_at);
  }

  if (offenders.empty() &&
      static_cast<int>(g.entries.size()) == g.expected) {
    ++report_.collectives_checked;
    return;
  }

  std::string detail = "collective #" + std::to_string(gen) + " of job " +
                       std::to_string(job) + ": ";
  if (!offenders.empty()) {
    detail += offenders + " while " + std::to_string(modal_count) + "/" +
              std::to_string(g.expected) + " rank(s) called " +
              reference->signature;
    if (final_audit &&
        static_cast<int>(g.entries.size()) < g.expected) {
      detail += " (and " +
                std::to_string(g.expected -
                               static_cast<int>(g.entries.size())) +
                " rank(s) never entered it)";
    }
  } else {
    // Uniform colors but an incomplete rank set at the finalize audit: the
    // missing ranks never made the call at all.
    detail += "only " + std::to_string(g.entries.size()) + "/" +
              std::to_string(g.expected) + " rank(s) entered " +
              reference->signature + " (first at " +
              sim::formatTime(by_rank.front()->posted_at) + ")";
  }
  addFinding(Category::kCollectiveDivergence, now, slice,
             first_offender >= 0 ? by_rank.front()->node : -1, job,
             first_offender, std::move(detail));
}

void Verifier::onMatch(std::uint64_t slice, sim::SimTime now, int node,
                       const bcsmpi::SendDescriptor& s,
                       const bcsmpi::RecvDescriptor& r,
                       std::size_t eligible_sources) {
  ++report_.matches_checked;
  if (s.bytes > r.bytes) {
    addFinding(Category::kTruncatedRecv, now, slice, node, r.job, r.dst_rank,
               "recv (req " + std::to_string(r.request) + ", posted at " +
                   sim::formatTime(r.posted_at) + ") buffers " +
                   std::to_string(r.bytes) + "B but rank " +
                   std::to_string(s.src_rank) + " sent " +
                   std::to_string(s.bytes) + "B (tag " +
                   std::to_string(s.tag) + ")");
  }
  if (r.want_src == mpi::kAnySource && eligible_sources > 1) {
    addFinding(Category::kWildcardRace, now, slice, node, r.job, r.dst_rank,
               "wildcard recv (req " + std::to_string(r.request) +
                   ", posted at " + sim::formatTime(r.posted_at) +
                   ") matched rank " + std::to_string(s.src_rank) +
                   " with " + std::to_string(eligible_sources) +
                   " eligible senders in the slice: result depends on "
                   "arrival order (replay-determinism hazard)");
  }
}

void Verifier::onRmaEpoch(std::uint64_t slice, sim::SimTime now, int node,
                          const std::vector<bcsmpi::RmaOpDescriptor>& ops) {
  // `ops` arrives in canonical (job, origin rank, seq) order, so pairwise
  // scanning reports conflicts deterministically.  Epochs are one slice's
  // worth of ops for one node — small by construction — so the quadratic
  // pair walk is fine.
  auto writes = [](const bcsmpi::RmaOpDescriptor& d) {
    return d.kind != bcsmpi::RmaKind::kGet;
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const bcsmpi::RmaOpDescriptor& a = ops[i];
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      const bcsmpi::RmaOpDescriptor& b = ops[j];
      if (a.job != b.job || a.target_rank != b.target_rank ||
          a.window != b.window) {
        continue;
      }
      if (a.origin_rank == b.origin_rank) continue;  // program order holds
      if (!writes(a) && !writes(b)) continue;        // read-read is benign
      if (a.kind == bcsmpi::RmaKind::kFetchAdd &&
          b.kind == bcsmpi::RmaKind::kFetchAdd) {
        continue;  // remote atomics commute; that is their whole point
      }
      std::size_t lo = std::max(a.offset, b.offset);
      std::size_t hi = std::min(a.offset + a.bytes, b.offset + b.bytes);
      if (lo >= hi) continue;  // disjoint ranges
      addFinding(
          Category::kEpochRace, now, slice, node, a.job, a.origin_rank,
          std::string(rmaName(a.kind)) + " by rank " +
              std::to_string(a.origin_rank) + " (call #" +
              std::to_string(a.call_index) + ", posted at " +
              sim::formatTime(a.posted_at) + ") overlaps " +
              rmaName(b.kind) + " by rank " + std::to_string(b.origin_rank) +
              " (call #" + std::to_string(b.call_index) + ", posted at " +
              sim::formatTime(b.posted_at) + ") on window " +
              std::to_string(a.window) + " of rank " +
              std::to_string(a.target_rank) + ", bytes [" +
              std::to_string(lo) + ", " + std::to_string(hi) +
              "): epoch outcome is order-dependent");
    }
  }
}

void Verifier::finalizeAudit(sim::SimTime now, std::uint64_t slice) {
  if (report_.finalized) return;
  for (const auto& [key, g] : pending_) {
    checkGroup(key.first, key.second, g, slice, now, /*final_audit=*/true);
  }
  pending_.clear();
  report_.finalized = true;
}

}  // namespace bcs::verify
