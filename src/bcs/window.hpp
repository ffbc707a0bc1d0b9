#pragma once

// One-sided RMA window registry (DESIGN.md §11).
//
// A window exposes a contiguous region of a rank's process memory for
// remote puts/gets/fetch-adds.  The registry is passive bookkeeping only —
// the BCS-MPI runtime schedules the actual data movement as passive-target
// epochs inside the global-slice microphases, built on the same
// Xfer-And-Signal primitive every other transfer uses.  Registration is
// symmetric (every rank of a job registers the same window id in the same
// order, like MPI_Win_create), so a window id plus a target rank names a
// remote region without any extra metadata exchange.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace bcs::core {

/// One registered region: raw process memory owned by the registering
/// fiber.  The pointer must stay valid until the owning rank finishes (the
/// BCS-MPI API enforces this with a barrier-bounded usage discipline).
struct WindowRegion {
  unsigned char* base = nullptr;
  std::size_t bytes = 0;
};

/// Per-owner window table.  Owners are opaque 64-bit keys (the BCS-MPI
/// runtime packs (job, rank)); window ids are sequential per owner so
/// symmetric registration yields symmetric ids.
class WindowRegistry {
 public:
  /// Registers a region for `owner` and returns its window id (0, 1, ...).
  int registerWindow(std::uint64_t owner, void* base, std::size_t bytes);

  /// Resolves (owner, window) and bounds-checks [offset, offset+bytes).
  /// Throws sim::SimError on unknown windows or out-of-range accesses.
  const WindowRegion& resolve(std::uint64_t owner, int window,
                              std::size_t offset, std::size_t bytes) const;

  /// Drops all windows registered by `owner` (rank finished or evicted).
  void dropOwner(std::uint64_t owner);

  std::size_t totalWindows() const;

 private:
  std::map<std::uint64_t, std::vector<WindowRegion>> windows_;
};

}  // namespace bcs::core
