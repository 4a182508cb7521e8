// Sorted-vector map for small, sparse per-node tables (the RREQ
// tables, open discoveries, packet buffers, the MAC duplicate filter).
//
// Entries sit contiguously in key order: a lookup is a binary search
// and iteration follows the keys, so no walk over one can depend on a
// hash layout. Inserting or erasing moves later entries, which
// invalidates pointers and references into the map.
//
// Header-only, like check.hpp, so every layer can use it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace wmn::core {

template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;

  [[nodiscard]] Value* find(const Key& k) { return find_in(*this, k); }
  [[nodiscard]] const Value* find(const Key& k) const { return find_in(*this, k); }
  [[nodiscard]] bool contains(const Key& k) const { return find(k) != nullptr; }

  // The value for `k`, built from `args` when absent; `second` says
  // whether it was inserted.
  template <typename... Args>
  std::pair<Value&, bool> try_emplace(const Key& k, Args&&... args) {
    auto it = lower(k);
    if (it != items_.end() && it->first == k) return {it->second, false};
    it = items_.emplace(it, std::piecewise_construct, std::forward_as_tuple(k),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it->second, true};
  }
  Value& operator[](const Key& k) { return try_emplace(k).first; }

  void erase(const Key& k) {
    auto it = lower(k);
    if (it != items_.end() && it->first == k) items_.erase(it);
  }
  // Erase every entry for which pred(key, value) holds, visiting in key
  // order. Storage a burst left behind goes back once three quarters
  // of it stands empty: callers purge periodically, and a table that
  // peaked once would otherwise hold its peak for the rest of the run.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::erase_if(items_, [&](value_type& kv) { return pred(kv.first, kv.second); });
    if (items_.size() < items_.capacity() / 4) items_.shrink_to_fit();
  }

  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }
  void clear() { items_.clear(); }

  // Bytes held by the entry storage (capacity, not size).
  [[nodiscard]] std::size_t memory_bytes() const {
    return items_.capacity() * sizeof(value_type);
  }

 private:
  auto lower(const Key& k) {
    return std::ranges::lower_bound(items_, k, {}, &value_type::first);
  }
  // find() for both constnesses.
  template <typename Self>
  static auto* find_in(Self& self, const Key& k) {
    auto it = std::ranges::lower_bound(self.items_, k, {}, &value_type::first);
    return it != self.items_.end() && it->first == k ? &it->second : nullptr;
  }

  std::vector<value_type> items_;
};

}  // namespace wmn::core
