#pragma once

// Pointer swizzling for snapshots.
//
// Descriptors and chunk GetOps hold raw pointers into application buffers.
// A snapshot cannot store pointers, so checkpointable workloads register
// every communication buffer here under a stable id; capture rewrites each
// pointer as (buffer id, offset) and restore resolves it against the fresh
// process's registry (same ids, same sizes — the workload registers them in
// construction order).  Buffer *contents* are serialized too: a restored
// run must re-send exactly the bytes the interrupted run would have.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/error.hpp"

namespace bcs::snapshot {

inline constexpr std::uint32_t kNullBuffer = 0xffffffffu;

/// A serializable stand-in for a pointer into a registered buffer.
struct BufRef {
  std::uint32_t id = kNullBuffer;
  std::uint64_t offset = 0;
};

class BufferRegistry {
 public:
  void add(std::uint32_t id, std::byte* data, std::size_t size) {
    for (const Entry& e : entries_) {
      if (e.id == id) {
        throw SnapshotError("buffers",
                            "duplicate buffer id " + std::to_string(id));
      }
    }
    entries_.push_back(Entry{id, data, size});
  }

  /// Pointer → reference.  Null maps to kNullBuffer; a pointer outside every
  /// registered buffer means the workload forgot to register one — refuse
  /// the capture rather than snapshot a dangling address.
  BufRef refOf(const std::byte* p) const {
    if (p == nullptr) return BufRef{};
    for (const Entry& e : entries_) {
      if (p >= e.data && p < e.data + e.size) {
        return BufRef{e.id, static_cast<std::uint64_t>(p - e.data)};
      }
    }
    // One-past-the-end of a buffer is a valid position for a fully-consumed
    // chunk pointer; resolve it against the owning buffer.
    for (const Entry& e : entries_) {
      if (p == e.data + e.size) return BufRef{e.id, e.size};
    }
    throw SnapshotError("buffers", "pointer into an unregistered buffer");
  }

  std::byte* resolve(BufRef ref) const {
    if (ref.id == kNullBuffer) return nullptr;
    for (const Entry& e : entries_) {
      if (e.id != ref.id) continue;
      if (ref.offset > e.size) {
        throw SnapshotError("buffers",
                            "offset " + std::to_string(ref.offset) +
                                " past end of buffer " +
                                std::to_string(ref.id));
      }
      return e.data + ref.offset;
    }
    throw SnapshotError("buffers",
                        "unknown buffer id " + std::to_string(ref.id));
  }

  /// A pointer field, written as (buffer id, offset) and resolved against
  /// this registry at restore.
  template <class Ar, class Ptr>
  void ref(Ar& a, Ptr& p) const {
    BufRef r;
    if constexpr (!Ar::kLoading) r = refOf(p);
    a(r.id, r.offset);
    if constexpr (Ar::kLoading) p = resolve(r);
  }

  /// Every buffer's contents, in registration order.  The fresh build
  /// registered the same buffers, so a restore checks each id and size.
  template <class Ar>
  void contents(Ar& a) {
    a.sameSize(entries_, "buffer", [&a](auto& ent) {
      std::uint32_t id = ent.id;
      std::size_t size = ent.size;
      a(id, size);
      if constexpr (Ar::kLoading) {
        if (id != ent.id || size != ent.size) {
          a.fail("buffer " + std::to_string(ent.id) + " shape mismatch");
        }
      }
      a.bytes(ent.data, ent.size);
    });
  }

 private:
  struct Entry {
    std::uint32_t id;
    std::byte* data;
    std::size_t size;
  };
  std::vector<Entry> entries_;
};

}  // namespace bcs::snapshot
