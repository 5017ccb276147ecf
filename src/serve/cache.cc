#include "serve/cache.h"

namespace cfnet::serve {

std::shared_ptr<const json::Json> ResultCache::Lookup(uint64_t fingerprint,
                                                      uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key{fingerprint, epoch});
  if (it == index_.end()) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second->body;
}

void ResultCache::Insert(uint64_t fingerprint, uint64_t epoch,
                         std::shared_ptr<const json::Json> body) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{fingerprint, epoch};
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->body = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(body)});
  index_[key] = lru_.begin();
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  while (lru_.size() > kCapacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    stats_.lru_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ResultCache::EvictEpochsBefore(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.epoch < epoch) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  stats_.epoch_evictions.fetch_add(static_cast<int64_t>(evicted),
                                   std::memory_order_relaxed);
  return evicted;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace cfnet::serve
