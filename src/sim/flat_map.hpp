#pragma once

// An ordered map in one vector, for the small keyed tables on per-message
// paths (request tables, chunk accounting, envelope buckets).
//
// Entries are kept sorted by key, so lookups are a binary search and
// iteration is in key order, never hash order.  A warm table allocates
// nothing: inserting reuses the vector's capacity, and erasing never
// frees.  Keys issued in increasing order (request ids, posting seqs)
// append at the back, and the oldest are usually erased first, so erasing
// the first entry is O(1): it only advances the front, and the dead front
// is compacted away once it outgrows the live entries.  Any other erase
// moves the entries on its nearer side, at most half the table.
// Iterators and references are invalidated by every insert and erase.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace bcs::sim {

template <typename K, typename V>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin() + static_cast<long>(head_); }
  iterator end() { return items_.end(); }
  const_iterator begin() const {
    return items_.begin() + static_cast<long>(head_);
  }
  const_iterator end() const { return items_.end(); }

  std::size_t size() const { return items_.size() - head_; }
  bool empty() const { return head_ == items_.size(); }
  void clear() {
    items_.clear();
    head_ = 0;
  }

  iterator find(const K& k) {
    const iterator it = lowerBound(k);
    return it != end() && !(k < it->first) ? it : end();
  }
  const_iterator find(const K& k) const {
    const const_iterator it = std::lower_bound(
        begin(), end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
    return it != end() && !(k < it->first) ? it : end();
  }

  /// Inserts (k, v) unless k is present; returns the entry for k.
  std::pair<iterator, bool> emplace(const K& k, V v) {
    if (empty() || items_.back().first < k) {
      items_.emplace_back(k, std::move(v));
      return {items_.end() - 1, true};
    }
    const iterator it = lowerBound(k);
    if (!(k < it->first)) return {it, false};
    return {items_.insert(it, value_type(k, std::move(v))), true};
  }
  /// emplace() for a whole entry (the snapshot decoder refills with it).
  void insert(value_type kv) { emplace(kv.first, std::move(kv.second)); }

  V& operator[](const K& k) { return emplace(k, V{}).first->second; }

  /// Erases `it` and returns the entry after it.  Shifts the entries on
  /// the nearer side of `it`: the later ones down, or the earlier ones up
  /// over it, advancing the front.
  iterator erase(iterator it) {
    if (it != begin()) {
      if (end() - it <= it - begin()) return items_.erase(it);
      std::move_backward(begin(), it, it + 1);
    }
    const auto next = it - begin();  // after it, once the front moves up
    *begin() = value_type{};  // releases what the entry holds
    ++head_;
    if (head_ >= size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<long>(head_));
      head_ = 0;
    }
    return begin() + next;
  }
  std::size_t erase(const K& k) {
    const iterator it = find(k);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }

 private:
  iterator lowerBound(const K& k) {
    return std::lower_bound(
        begin(), end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }

  std::vector<value_type> items_;  ///< dead [0, head_), then live, by key
  std::size_t head_ = 0;
};

}  // namespace bcs::sim
