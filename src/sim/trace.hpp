#pragma once

// Lightweight event tracing.
//
// The BCS paper argues that global coordination makes the system "much
// simpler to ... debug and model"; the trace facility is how this repository
// demonstrates that: every microstrobe, descriptor exchange, match and DMA
// can be recorded and asserted on in tests.  Tracing is off by default.
//
// Simulator code writes records only through traceRecord() below, which
// takes the message as a callable and renders it only when the trace is
// enabled: a disabled trace costs one inline test per site and builds no
// string, an enabled one records exactly the text the callable returns.
// tools/determinism_lint.py rejects direct Trace::record calls in src/
// outside this file, so eager message building cannot creep back into a
// hot path.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace bcs::sim {

enum class TraceCategory : std::uint8_t {
  kEngine,
  kCpu,
  kNet,
  kBcsCore,
  kStrobe,      // SS/SR microstrobes and microphase transitions
  kDescriptor,  // descriptor post/exchange/match
  kDma,         // point-to-point payload movement
  kCollective,  // CH/RH activity
  kStorm,       // MM/NM resource-management traffic
  kFault,       // injected faults, retransmissions, evictions, recovery
  kFailover,    // control-plane failover: watchdogs, elections, rejoins
  kVerify,      // protocol-verifier findings (src/verify)
  kApp,
  kEpochRace,   // RMA epoch-race findings (src/verify, DESIGN.md §11)
};

const char* traceCategoryName(TraceCategory c);

struct TraceRecord {
  SimTime time;
  TraceCategory category;
  int node;  // -1 when not node-specific
  std::string message;
};

class Trace {
 public:
  /// Enables collection (optionally mirrored to stderr for live debugging).
  void enable(bool echo_to_stderr = false);
  bool enabled() const { return enabled_; }

  /// Records one entry (and echoes it to stderr if asked to).
  void record(SimTime t, TraceCategory cat, int node, std::string msg);

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() {
    records_.clear();
    dump_bytes_ = 0;
  }

  /// Number of records matching a predicate — handy in protocol tests.
  std::size_t count(const std::function<bool(const TraceRecord&)>& pred) const;

  /// Renders all records as text ("[time] CATEGORY node: message").
  std::string dump() const;

  /// dump().size(), kept as records are added: O(1).
  std::size_t dumpBytes() const { return dump_bytes_; }

 private:
  bool enabled_ = false;
  bool echo_ = false;
  std::vector<TraceRecord> records_;
  std::size_t dump_bytes_ = 0;
};

/// Records `message()` at (t, cat, node) if `trace` is attached and enabled;
/// otherwise `message` is never invoked.
template <typename MessageFn>
inline void traceRecord(Trace* trace, SimTime t, TraceCategory cat, int node,
                        MessageFn&& message) {
  if (trace != nullptr && trace->enabled()) {
    trace->record(t, cat, node, std::forward<MessageFn>(message)());
  }
}

}  // namespace bcs::sim
