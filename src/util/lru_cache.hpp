// Thread-safe LRU cache of immutable shared values: a recency list plus
// a hash index under one mutex. Values are shared_ptr<const V>, so a
// hit hands every caller the same object and an evicted entry stays
// alive until its last holder lets go. The svc result cache
// (svc::ResultCache) and the shard partition-plan cache
// (shard::PlanCache) are instances of this one template.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace glouvain::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };

  /// capacity == 0 disables caching (every lookup misses, puts drop).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Lookup; a hit refreshes recency. Null on miss.
  std::shared_ptr<const Value> get(const Key& key) {
    const std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// Insert or refresh; evicts least-recently-used entries beyond
  /// capacity.
  void put(const Key& key, std::shared_ptr<const Value> value) {
    const std::lock_guard lock(mutex_);
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, lru_.begin());
    ++insertions_;
    evict_beyond_capacity();
  }

  /// Resize; shrinking evicts the least recent entries first.
  void set_capacity(std::size_t capacity) {
    const std::lock_guard lock(mutex_);
    capacity_ = capacity;
    evict_beyond_capacity();
  }

  /// Drop every entry and zero the traffic counters.
  void clear() {
    const std::lock_guard lock(mutex_);
    lru_.clear();
    index_.clear();
    hits_ = 0;
    misses_ = 0;
    insertions_ = 0;
    evictions_ = 0;
  }

  Stats stats() const {
    const std::lock_guard lock(mutex_);
    return {hits_, misses_, insertions_, evictions_, lru_.size(), capacity_};
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
  };

  /// Caller holds mutex_.
  void evict_beyond_capacity() {
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace glouvain::util
