#include "race/race.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "sim/trace.hpp"

namespace bcs::race {

const char* objectKindName(ObjectKind k) {
  switch (k) {
    case ObjectKind::kNodeState: return "node-state";
    case ObjectKind::kRankTable: return "rank-table";
    case ObjectKind::kCoreVars: return "core-vars";
    case ObjectKind::kCoreEvents: return "core-events";
    case ObjectKind::kFabricEndpoint: return "endpoint";
    case ObjectKind::kShardQueue: return "shard-queue";
    case ObjectKind::kPoolStripe: return "pool-stripe";
    case ObjectKind::kStatStripe: return "stat-stripe";
    case ObjectKind::kRmaWindow: return "rma-window";
  }
  return "?";
}

const char* fieldGroupName(FieldGroup g) {
  switch (g) {
    case FieldGroup::kBufferSender: return "BufferSender";
    case FieldGroup::kBufferReceiver: return "BufferReceiver";
    case FieldGroup::kCollectives: return "Collectives";
    case FieldGroup::kDma: return "Dma";
    case FieldGroup::kNodeManager: return "NodeManager";
    case FieldGroup::kPhase: return "Phase";
    case FieldGroup::kRequests: return "Requests";
    case FieldGroup::kVars: return "Vars";
    case FieldGroup::kEvents: return "Events";
    case FieldGroup::kEgress: return "Egress";
    case FieldGroup::kIngress: return "Ingress";
    case FieldGroup::kQueue: return "Queue";
    case FieldGroup::kStripe: return "Stripe";
    case FieldGroup::kRma: return "RmaWindow";
  }
  return "?";
}

const char* categoryName(Category c) {
  switch (c) {
    case Category::kWriteWrite: return "write-write";
    case Category::kReadWrite: return "read-write";
    case Category::kOwnershipViolation: return "ownership-violation";
  }
  return "?";
}

bool RaceReport::clean() const {
  for (std::uint64_t c : counts) {
    if (c != 0) return false;
  }
  return dropped_findings == 0;
}

std::string RaceReport::render() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  std::string out = "bcs-race report: ";
  if (total == 0) {
    out += "clean";
  } else {
    out += std::to_string(total) + " finding(s)";
  }
  out += " (" + std::to_string(windows_merged) + " window(s), " +
         std::to_string(accesses_recorded) + " access(es), " +
         std::to_string(objects_tracked) + " registered object(s)";
  out += finalized ? ", finalized)\n" : ")\n";
  for (int c = 0; c < kNumCategories; ++c) {
    if (counts[c] == 0) continue;
    out += "  " + std::string(categoryName(static_cast<Category>(c))) + ": " +
           std::to_string(counts[c]) + "\n";
  }
  for (const Finding& f : findings) {
    out += "  [" + sim::formatTime(f.time) + "] " +
           categoryName(f.category) + " " + f.detail + "\n";
  }
  if (dropped_findings > 0) {
    out += "  (+" + std::to_string(dropped_findings) +
           " finding(s) beyond the retention cap; counters are exact)\n";
  }
  return out;
}

RaceDetector::RaceDetector(sim::Engine& engine, sim::Trace* trace,
                           std::size_t max_findings)
    : engine_(engine),
      trace_(trace),
      max_findings_(max_findings),
      tables_(kMaxTrackedShards) {
  engine_.setShardObserver(this);
}

RaceDetector::~RaceDetector() {
  if (engine_.shardObserver() == this) engine_.setShardObserver(nullptr);
}

void RaceDetector::registerObject(ObjectKind kind, std::uint64_t id,
                                  sim::ShardId owner) {
  registry_[{static_cast<std::uint8_t>(kind), id}] = OwnerInfo{owner, false};
}

void RaceDetector::registerShared(ObjectKind kind, std::uint64_t id) {
  registry_[{static_cast<std::uint8_t>(kind), id}] = OwnerInfo{0, true};
}

void RaceDetector::record(ObjectKind kind, std::uint64_t id, FieldGroup group,
                          Access access, const char* site) {
  const std::uint64_t event_key = engine_.currentEventKey();
  if (event_key == 0) return;  // setup/teardown: single-threaded, no shards
  const sim::ShardId shard = engine_.currentShard();
  if (static_cast<std::size_t>(shard) >= kMaxTrackedShards) {
    sim::simFail("RaceDetector: shard " + std::to_string(shard) +
                 " beyond kMaxTrackedShards");
  }
  ShardTable& table = tables_[shard];
  table.touched = true;
  AccessEntry& entry = table.acc[ObjectKey{kind, group, id}];
  const Provenance prov{event_key, engine_.now(), site};
  if (access == Access::kWrite) {
    if (entry.writes++ == 0) entry.first_write = prov;
  } else {
    if (entry.reads++ == 0) entry.first_read = prov;
  }
}

void RaceDetector::onSerialCrossShard(sim::ShardId target, const char* what) {
  record(ObjectKind::kShardQueue, target, FieldGroup::kQueue, Access::kWrite,
         what);
}

void RaceDetector::onBarrier(sim::SimTime boundary) { mergeTables(boundary); }

void RaceDetector::onSliceBoundary(sim::SimTime boundary) {
  // Inside a parallel window this thread is a worker and other workers'
  // tables are live — the engine barrier (onBarrier) merges on the same
  // slice grid instead, so serial and parallel runs partition accesses into
  // identical windows.
  if (sim::detail::currentWorkerIndex() >= 0) return;
  mergeTables(boundary);
}

const RaceReport& RaceDetector::finalize(sim::SimTime now) {
  if (report_.finalized) return report_;
  mergeTables(now);
  report_.finalized = true;
  return report_;
}

RaceDetector::OwnerInfo RaceDetector::ownerOf(const ObjectKey& key) const {
  // A shard queue is owned by its shard; stripes are shared by design even
  // when nobody registered them.  Everything else defaults to shard 0 (the
  // serial world's only shard) unless registered.
  if (key.kind == ObjectKind::kShardQueue) {
    return OwnerInfo{static_cast<sim::ShardId>(key.id), false};
  }
  const auto it =
      registry_.find({static_cast<std::uint8_t>(key.kind), key.id});
  if (it != registry_.end()) return it->second;
  if (key.kind == ObjectKind::kPoolStripe ||
      key.kind == ObjectKind::kStatStripe) {
    return OwnerInfo{0, true};
  }
  return OwnerInfo{0, false};
}

std::string RaceDetector::describe(const ObjectKey& key) {
  std::string out = objectKindName(key.kind);
  out += ' ';
  if (key.kind == ObjectKind::kRankTable) {
    out += "j" + std::to_string(key.id >> 16) + "/r" +
           std::to_string(key.id & 0xFFFF);
  } else {
    out += std::to_string(key.id);
  }
  out += " group ";
  out += fieldGroupName(key.group);
  return out;
}

std::string RaceDetector::describeAccess(sim::ShardId shard,
                                         const Provenance& p) {
  char key_hex[32];
  std::snprintf(key_hex, sizeof(key_hex), "0x%" PRIx64, p.event_key);
  return "shard " + std::to_string(shard) + " (key=" + key_hex +
         ", t=" + sim::formatTime(p.time) +
         ", site=" + (p.site != nullptr ? p.site : "?") + ")";
}

void RaceDetector::addFinding(Category cat, sim::SimTime boundary,
                              const ObjectKey& key, std::string detail) {
  ++report_.counts[static_cast<int>(cat)];
  int node = -1;
  switch (key.kind) {
    case ObjectKind::kNodeState:
    case ObjectKind::kCoreVars:
    case ObjectKind::kCoreEvents:
    case ObjectKind::kFabricEndpoint:
      node = static_cast<int>(key.id);
      break;
    default:
      break;
  }
  sim::traceRecord(trace_, boundary, sim::TraceCategory::kRace, node, [&] {
    return std::string(categoryName(cat)) + ": " + detail;
  });
  if (report_.findings.size() >= max_findings_) {
    ++report_.dropped_findings;
    return;
  }
  report_.findings.push_back(
      Finding{cat, boundary, key.kind, key.id, key.group, std::move(detail)});
}

void RaceDetector::mergeTables(sim::SimTime boundary) {
  ++report_.windows_merged;
  report_.objects_tracked = registry_.size();

  // Gather every touched (object, group) with its touching shards, in
  // canonical order: ObjectKey ascending (std::map), shards ascending (the
  // table scan below runs in shard order).  This order — not any worker
  // timing — decides finding order, which is what makes the report
  // identical at every thread count.
  struct Toucher {
    sim::ShardId shard;
    const AccessEntry* entry;
  };
  std::map<ObjectKey, std::vector<Toucher>> gathered;
  for (std::size_t s = 0; s < tables_.size(); ++s) {
    ShardTable& table = tables_[s];
    if (!table.touched) continue;
    for (const auto& [key, entry] : table.acc) {
      report_.accesses_recorded += entry.reads + entry.writes;
      gathered[key].push_back(Toucher{static_cast<sim::ShardId>(s), &entry});
    }
  }

  for (const auto& [key, touchers] : gathered) {
    const OwnerInfo info = ownerOf(key);
    if (info.shared) continue;  // striped by design: never a finding

    std::size_t writer_count = 0;
    for (const Toucher& t : touchers) {
      if (t.entry->writes > 0) ++writer_count;
    }

    if (touchers.size() >= 2 && writer_count >= 1) {
      if (writer_count >= 2) {
        // First two writer shards carry the provenance; more writers are
        // summarized (each pair would restate the same conflict).
        const Toucher* a = nullptr;
        const Toucher* b = nullptr;
        for (const Toucher& t : touchers) {
          if (t.entry->writes == 0) continue;
          if (a == nullptr) {
            a = &t;
          } else if (b == nullptr) {
            b = &t;
            break;
          }
        }
        std::string detail = "on " + describe(key) + ": " +
                             describeAccess(a->shard, a->entry->first_write) +
                             " vs " +
                             describeAccess(b->shard, b->entry->first_write);
        if (writer_count > 2) {
          detail +=
              " (+" + std::to_string(writer_count - 2) + " more writer(s))";
        }
        addFinding(Category::kWriteWrite, boundary, key, std::move(detail));
      } else {
        const Toucher* writer = nullptr;
        const Toucher* reader = nullptr;
        for (const Toucher& t : touchers) {
          if (t.entry->writes > 0) {
            writer = &t;
          } else if (reader == nullptr) {
            reader = &t;
          }
        }
        std::string detail =
            "on " + describe(key) + ": write by " +
            describeAccess(writer->shard, writer->entry->first_write) +
            " vs read by " +
            describeAccess(reader->shard, reader->entry->first_read);
        if (touchers.size() > 2) {
          detail +=
              " (+" + std::to_string(touchers.size() - 2) + " more reader(s))";
        }
        addFinding(Category::kReadWrite, boundary, key, std::move(detail));
      }
    } else if (touchers.size() == 1) {
      const Toucher& t = touchers.front();
      if (t.entry->writes > 0 && t.shard != info.owner) {
        addFinding(Category::kOwnershipViolation, boundary, key,
                   "on " + describe(key) + " owned by shard " +
                       std::to_string(info.owner) + ": write by " +
                       describeAccess(t.shard, t.entry->first_write));
      }
    }
  }

  for (auto& table : tables_) {
    if (table.touched) {
      table.acc.clear();
      table.touched = false;
    }
  }
}

}  // namespace bcs::race
