#pragma once

// Strobe-Sender tree membership (DESIGN.md §7, "Hierarchical control
// plane").
//
// STORM owns cluster membership (heartbeats, death declaration, rejoin);
// this module is the membership view the hierarchical control plane needs on
// top of it: which live nodes form each rack, which member currently holds
// the rack's Strobe-Sender role, and how roles move when members die or
// return.  It is deliberately a pure deterministic data structure — no
// engine, no fabric — so the BCS-MPI runtime can consult it from any point
// of the strobe protocol without ordering hazards, and so the determinism
// lint can hold it to the same standard as the runtime itself.
//
// Role rules (mirroring the runtime's epoch-fenced elections):
//   * a rack's SS is initially its lowest node index;
//   * evicting the SS promotes the lowest surviving member (the same
//     deterministic lowest-live-id rule the flat election uses);
//   * a node rejoining an emptied rack revives it with itself as SS.

#include <vector>

#include "net/topology.hpp"

namespace bcs::storm {

class SsTree {
 public:
  /// Disabled (flat control plane): every query that needs a rack throws.
  SsTree() = default;

  /// Partitions nodes 0..num_nodes-1 into racks of `fanout` consecutive
  /// indices (net::RackLayout) with every node initially live.
  SsTree(int num_nodes, int fanout);

  bool enabled() const { return fanout_ > 0; }
  int fanout() const { return fanout_; }

  /// Strobe fan-out levels between the root SS and a compute node:
  /// 1 = flat (root strobes members directly), 2 = root -> rack SS ->
  /// members.  Deeper trees would generalize this; two levels keep the root
  /// at O(nodes / fanout) messages through every scale this repo benches.
  int levels() const { return enabled() ? 2 : 1; }

  int rackCount() const { return static_cast<int>(racks_.size()); }
  int rackOf(int node) const;

  /// Current Strobe Sender of rack `r` (-1 once the rack is empty).
  int ss(int r) const { return rackAt(r).ss; }

  /// Reassigns rack `r`'s SS role (a runtime election result).  `node` must
  /// be a live member of `r`.
  void setSs(int r, int node);

  /// Live members of rack `r`, ascending (the SS is one of them).
  const std::vector<int>& members(int r) const { return rackAt(r).members; }

  /// SS of the lowest-indexed non-empty rack — the deterministic leader for
  /// root-level elections.  -1 when every rack is empty.
  int firstLiveRackSs() const;

  struct EvictResult {
    bool removed = false;     ///< node was a live member and is now gone
    bool ss_changed = false;  ///< the node led its rack; a successor rose
    bool rack_empty = false;  ///< the rack lost its last member
  };

  /// Removes `node` from its rack, promoting the lowest surviving member to
  /// SS if the node held the role.  Idempotent.
  EvictResult evict(int node);

  /// Re-inserts an evicted `node` (sorted).  Returns true when the rack was
  /// empty — the node revives it as its SS.  Idempotent.
  bool rejoin(int node);

 private:
  struct Rack {
    int ss = -1;
    std::vector<int> members;  ///< live nodes, ascending
  };

  const Rack& rackAt(int r) const;
  Rack& rackAt(int r);

  int fanout_ = 0;
  std::vector<int> rack_of_node_;
  std::vector<Rack> racks_;
};

}  // namespace bcs::storm
