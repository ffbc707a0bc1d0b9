#pragma once

// Envelope indexes for MSM descriptor matching.
//
// The Buffer Receiver matches posted receives against arrived send
// descriptors once per slice.  A naive scan is O(receives x sends); these
// indexes bucket both sides by the message envelope (job, dst_rank, src,
// tag) so a slice's matching work is proportional to the number of matches
// (plus the wildcard receives, which by MPI semantics can pair with any
// source/tag and therefore live on a side-list that is scanned in seq
// order).
//
// Determinism invariants (see DESIGN.md §"Simulator internals"):
//  * the canonical store is keyed by the descriptor's global posting
//    sequence, so every iteration order used for matching, eviction
//    scrubbing and snapshots is the posting order;
//  * the envelope buckets are ordered by envelope, so forEachEnvelope()
//    visits them in envelope order — never hash order.
//
// Both sides are flat (sim/flat_map.hpp) and each envelope's seq list
// lives in a recycled slot (sim/slots.hpp): a warm index allocates nothing
// per descriptor.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

#include "bcsmpi/descriptors.hpp"
#include "mpi/types.hpp"
#include "sim/flat_map.hpp"
#include "sim/slots.hpp"

namespace bcs::bcsmpi {

/// MPI point-to-point matching: wildcard tag matches only application
/// (non-negative) tags; internal negative tags must match exactly (see
/// mpi/comm.hpp).
inline bool envelopeMatches(const RecvDescriptor& r, const SendDescriptor& s) {
  return r.job == s.job && r.dst_rank == s.dst_rank &&
         (r.want_src == mpi::kAnySource || r.want_src == s.src_rank) &&
         (r.want_tag == s.tag || (r.want_tag == mpi::kAnyTag && s.tag >= 0));
}

/// Fully concrete message envelope.  Send descriptors always have one;
/// receive descriptors have one unless they use a wildcard.
struct EnvelopeKey {
  int job = 0;
  int dst_rank = 0;
  int src_rank = 0;
  int tag = 0;
  auto operator<=>(const EnvelopeKey&) const = default;
};

/// Posting seqs per envelope, each list ascending, envelopes in key order.
/// An envelope leaves when its last seq does; its list's slot keeps its
/// capacity for the next envelope.
class EnvelopeBuckets {
 public:
  /// The seqs filed under `key` (ascending), or nullptr if none.
  const std::vector<std::uint64_t>* find(const EnvelopeKey& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &*it->second;
  }

  void add(const EnvelopeKey& key, std::uint64_t seq) {
    auto [it, fresh] = index_.emplace(key, List{});
    if (fresh) it->second = lists_.acquire();
    std::vector<std::uint64_t>& seqs = *it->second;
    // Descriptors normally arrive in seq order, but a retransmitted (older)
    // one can land after younger ones, so insert positionally.
    seqs.insert(std::lower_bound(seqs.begin(), seqs.end(), seq), seq);
  }

  void remove(const EnvelopeKey& key, std::uint64_t seq) {
    const auto it = index_.find(key);
    std::vector<std::uint64_t>& seqs = *it->second;
    seqs.erase(std::lower_bound(seqs.begin(), seqs.end(), seq));
    if (seqs.empty()) index_.erase(it);
  }

  template <typename F>
  void forEachKey(F&& f) const {
    for (const auto& [key, list] : index_) f(key);
  }

  void clear() { index_.clear(); }

 private:
  using List = sim::Slots<std::vector<std::uint64_t>>::Ref;
  sim::Slots<std::vector<std::uint64_t>> lists_;
  sim::FlatMap<EnvelopeKey, List> index_;
};

/// Arrived send descriptors, indexed by envelope.  Replaces the BR's
/// `remote_sends` deque: finding the lowest-seq send matching a concrete
/// receive is one envelope lookup.
class SendMatchIndex {
 public:
  void insert(const SendDescriptor& s) {
    buckets_.add(keyOf(s), s.seq);
    by_seq_.emplace(s.seq, s);
  }

  /// The matching send with the lowest posting seq, or nullptr.  Concrete
  /// receives cost one envelope lookup; wildcard receives scan the
  /// canonical store in seq order (first hit is the answer).
  const SendDescriptor* lowestSeqMatch(const RecvDescriptor& r) const {
    if (r.want_src != mpi::kAnySource && r.want_tag != mpi::kAnyTag) {
      const auto* bucket = buckets_.find(
          EnvelopeKey{r.job, r.dst_rank, r.want_src, r.want_tag});
      if (bucket == nullptr) return nullptr;
      return &by_seq_.find(bucket->front())->second;
    }
    for (const auto& [seq, s] : by_seq_) {
      if (envelopeMatches(r, s)) return &s;
    }
    return nullptr;
  }

  /// Removes and returns the descriptor with posting seq `seq`.
  SendDescriptor take(std::uint64_t seq) {
    auto it = by_seq_.find(seq);
    const SendDescriptor s = it->second;
    by_seq_.erase(it);
    buckets_.remove(keyOf(s), seq);
    return s;
  }

  bool empty() const { return by_seq_.empty(); }
  std::size_t size() const { return by_seq_.size(); }
  void clear() {
    by_seq_.clear();
    buckets_.clear();
  }

  /// Visits every descriptor in posting (seq) order.
  template <typename F>
  void forEach(F&& f) const {
    for (const auto& [seq, s] : by_seq_) f(s);
  }

  /// Number of distinct source ranks with at least one arrived send that
  /// matches receive `r` — the wildcard-race metric (src/verify): a
  /// kAnySource receive matched while this exceeds 1 depends on descriptor
  /// arrival order for its result.  Scans the canonical seq-ordered store;
  /// only called with the verifier attached, never on the match hot path.
  std::size_t countEligibleSources(const RecvDescriptor& r) const {
    std::vector<int> srcs;
    for (const auto& [seq, s] : by_seq_) {
      if (envelopeMatches(r, s)) srcs.push_back(s.src_rank);
    }
    std::sort(srcs.begin(), srcs.end());
    srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    return srcs.size();
  }

  /// Removes every descriptor for which `pred` returns true, visiting in
  /// posting (seq) order.  `pred` may have side effects (eviction scrubbing
  /// fails the affected requests as it goes).
  template <typename Pred>
  void eraseIf(Pred&& pred) {
    for (auto it = by_seq_.begin(); it != by_seq_.end();) {
      if (!pred(it->second)) {
        ++it;
        continue;
      }
      buckets_.remove(keyOf(it->second), it->first);
      it = by_seq_.erase(it);
    }
  }

  /// Visits each distinct envelope present in the index, in envelope order.
  template <typename F>
  void forEachEnvelope(F&& f) const {
    buckets_.forEachKey(f);
  }

 private:
  static EnvelopeKey keyOf(const SendDescriptor& s) {
    return EnvelopeKey{s.job, s.dst_rank, s.src_rank, s.tag};
  }

  sim::FlatMap<std::uint64_t, SendDescriptor> by_seq_;  ///< canonical
  EnvelopeBuckets buckets_;
};

/// Matching-eligible receive descriptors.  Concrete receives are bucketed by
/// envelope; wildcard receives (any-source and/or any-tag) live on a
/// seq-ordered side-list since they can pair with any arriving send.
class RecvMatchIndex {
 public:
  void insert(const RecvDescriptor& r) {
    if (isWildcard(r)) {
      wildcards_.insert(
          std::lower_bound(wildcards_.begin(), wildcards_.end(), r.seq),
          r.seq);
    } else {
      buckets_.add(keyOf(r), r.seq);
    }
    by_seq_.emplace(r.seq, r);
  }

  const RecvDescriptor* find(std::uint64_t seq) const {
    auto it = by_seq_.find(seq);
    return it == by_seq_.end() ? nullptr : &it->second;
  }

  RecvDescriptor take(std::uint64_t seq) {
    auto it = by_seq_.find(seq);
    const RecvDescriptor r = it->second;
    by_seq_.erase(it);
    unindex(r);
    return r;
  }

  /// Seqs of concrete receives posted for this exact envelope (ascending),
  /// or nullptr if none.
  const std::vector<std::uint64_t>* bucketFor(const EnvelopeKey& key) const {
    return buckets_.find(key);
  }

  /// Seqs of wildcard receives, ascending.
  const std::vector<std::uint64_t>& wildcards() const { return wildcards_; }

  bool empty() const { return by_seq_.empty(); }
  std::size_t size() const { return by_seq_.size(); }
  void clear() {
    by_seq_.clear();
    buckets_.clear();
    wildcards_.clear();
  }

  template <typename F>
  void forEach(F&& f) const {
    for (const auto& [seq, r] : by_seq_) f(r);
  }

  template <typename Pred>
  void eraseIf(Pred&& pred) {
    for (auto it = by_seq_.begin(); it != by_seq_.end();) {
      if (!pred(it->second)) {
        ++it;
        continue;
      }
      unindex(it->second);
      it = by_seq_.erase(it);
    }
  }

 private:
  static bool isWildcard(const RecvDescriptor& r) {
    return r.want_src == mpi::kAnySource || r.want_tag == mpi::kAnyTag;
  }
  static EnvelopeKey keyOf(const RecvDescriptor& r) {
    return EnvelopeKey{r.job, r.dst_rank, r.want_src, r.want_tag};
  }
  void unindex(const RecvDescriptor& r) {
    if (isWildcard(r)) {
      wildcards_.erase(
          std::lower_bound(wildcards_.begin(), wildcards_.end(), r.seq));
    } else {
      buckets_.remove(keyOf(r), r.seq);
    }
  }

  sim::FlatMap<std::uint64_t, RecvDescriptor> by_seq_;
  EnvelopeBuckets buckets_;
  std::vector<std::uint64_t> wildcards_;
};

}  // namespace bcs::bcsmpi
