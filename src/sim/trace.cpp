#include "sim/trace.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

namespace bcs::sim {

const char* traceCategoryName(TraceCategory c) {
  switch (c) {
    case TraceCategory::kEngine: return "ENGINE";
    case TraceCategory::kCpu: return "CPU";
    case TraceCategory::kNet: return "NET";
    case TraceCategory::kBcsCore: return "BCSCORE";
    case TraceCategory::kStrobe: return "STROBE";
    case TraceCategory::kDescriptor: return "DESC";
    case TraceCategory::kDma: return "DMA";
    case TraceCategory::kCollective: return "COLL";
    case TraceCategory::kStorm: return "STORM";
    case TraceCategory::kFault: return "FAULT";
    case TraceCategory::kFailover: return "FAILOVER";
    case TraceCategory::kVerify: return "VERIFY";
    case TraceCategory::kApp: return "APP";
    case TraceCategory::kEpochRace: return "EPOCHRACE";
  }
  return "?";
}

void Trace::enable(bool echo_to_stderr) {
  enabled_ = true;
  echo_ = echo_to_stderr;
}

void Trace::record(SimTime t, TraceCategory cat, int node, std::string msg) {
  if (!enabled_) return;
  if (echo_) {
    std::fprintf(stderr, "[%14s] %-8s n%-3d %s\n", formatTime(t).c_str(),
                 traceCategoryName(cat), node, msg.c_str());
  }
  // The line dump() renders: "[" time "] " category " n" node ": " msg "\n".
  dump_bytes_ += formatTime(t).size() + std::strlen(traceCategoryName(cat)) +
                 std::to_string(node).size() + msg.size() + 8;
  records_.push_back(TraceRecord{t, cat, node, std::move(msg)});
}

std::size_t Trace::count(
    const std::function<bool(const TraceRecord&)>& pred) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (pred(r)) ++n;
  }
  return n;
}

std::string Trace::dump() const {
  std::string out;
  for (const auto& r : records_) {
    out += "[" + formatTime(r.time) + "] ";
    out += traceCategoryName(r.category);
    out += " n" + std::to_string(r.node) + ": " + r.message + "\n";
  }
  return out;
}

}  // namespace bcs::sim
