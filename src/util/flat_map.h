// A sorted-vector map for bulk-built, read-mostly results.
//
// The LGC's reachability classification is produced once per collection by
// an in-order sweep over the (ordered) heap and stub tables, then only
// looked up and iterated.  A node-based std::map pays one allocation per
// entry for that pattern — ~100k allocations per collection on the Figure
// 6/7 heaps; a sorted vector pays O(1) allocations total and halves the
// lookup constant.  Construction is append-only with strictly increasing
// keys (checked by assert), which the in-order producers guarantee.
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rgc::util {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  void reserve(std::size_t n) { items_.reserve(n); }
  /// Drops every entry, keeping the capacity.
  void clear() noexcept { items_.clear(); }

  /// Appends an entry; `key` must be strictly greater than every key
  /// already present (in-order bulk construction).
  void append(const K& key, V value) {
    assert(items_.empty() || items_.back().first < key);
    items_.emplace_back(key, std::move(value));
  }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] const_iterator begin() const noexcept { return items_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return items_.end(); }

  [[nodiscard]] const_iterator find(const K& key) const {
    auto it = std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != items_.end();
  }

  /// Value lookup; throws std::out_of_range when absent (std::map::at
  /// compatibility for tests and cold paths).
  [[nodiscard]] const V& at(const K& key) const {
    auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  std::vector<value_type> items_;
};

}  // namespace rgc::util
