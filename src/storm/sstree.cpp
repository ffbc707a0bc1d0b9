#include "storm/sstree.hpp"

#include <algorithm>
#include <stdexcept>

namespace bcs::storm {

SsTree::SsTree(int num_nodes, int fanout) : fanout_(fanout) {
  const net::RackLayout layout(num_nodes, fanout);
  rack_of_node_.resize(static_cast<std::size_t>(num_nodes));
  racks_.resize(static_cast<std::size_t>(layout.rackCount()));
  for (int n = 0; n < num_nodes; ++n) {
    const int r = layout.rackOf(n);
    rack_of_node_[static_cast<std::size_t>(n)] = r;
    racks_[static_cast<std::size_t>(r)].members.push_back(n);
  }
  for (Rack& rack : racks_) rack.ss = rack.members.front();
}

int SsTree::rackOf(int node) const {
  if (node < 0 || node >= static_cast<int>(rack_of_node_.size())) {
    throw std::out_of_range("SsTree::rackOf: node out of range");
  }
  return rack_of_node_[static_cast<std::size_t>(node)];
}

const SsTree::Rack& SsTree::rackAt(int r) const {
  if (r < 0 || r >= rackCount()) {
    throw std::out_of_range("SsTree: rack out of range");
  }
  return racks_[static_cast<std::size_t>(r)];
}

SsTree::Rack& SsTree::rackAt(int r) {
  if (r < 0 || r >= rackCount()) {
    throw std::out_of_range("SsTree: rack out of range");
  }
  return racks_[static_cast<std::size_t>(r)];
}

void SsTree::setSs(int r, int node) {
  Rack& rack = rackAt(r);
  if (!std::binary_search(rack.members.begin(), rack.members.end(), node)) {
    throw std::invalid_argument("SsTree::setSs: node not a live member");
  }
  rack.ss = node;
}

int SsTree::firstLiveRackSs() const {
  for (const Rack& rack : racks_) {
    if (!rack.members.empty()) return rack.ss;
  }
  return -1;
}

SsTree::EvictResult SsTree::evict(int node) {
  EvictResult result;
  Rack& rack = rackAt(rackOf(node));
  auto it = std::lower_bound(rack.members.begin(), rack.members.end(), node);
  if (it == rack.members.end() || *it != node) return result;
  rack.members.erase(it);
  result.removed = true;
  if (rack.members.empty()) {
    rack.ss = -1;
    result.rack_empty = true;
    return result;
  }
  if (rack.ss == node) {
    rack.ss = rack.members.front();
    result.ss_changed = true;
  }
  return result;
}

bool SsTree::rejoin(int node) {
  Rack& rack = rackAt(rackOf(node));
  auto it = std::lower_bound(rack.members.begin(), rack.members.end(), node);
  if (it != rack.members.end() && *it == node) return false;
  const bool was_empty = rack.members.empty();
  rack.members.insert(it, node);
  if (was_empty) rack.ss = node;
  return was_empty;
}

}  // namespace bcs::storm
