#include "serve/cache.h"

namespace cfnet::serve {

bool ResultCache::AdvanceLocked(uint64_t epoch) {
  if (epoch < epoch_) return false;
  if (epoch > epoch_) {
    stats_.epoch_evictions.fetch_add(static_cast<int64_t>(lru_.size()),
                                     std::memory_order_relaxed);
    lru_.clear();
    index_.clear();
    epoch_ = epoch;
  }
  return true;
}

std::shared_ptr<const json::Json> ResultCache::Lookup(uint64_t fingerprint,
                                                      uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = AdvanceLocked(epoch) ? index_.find(fingerprint) : index_.end();
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
  if (!AdvanceLocked(epoch)) return;
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    it->second->body = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{fingerprint, std::move(body)});
  index_[fingerprint] = lru_.begin();
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  while (lru_.size() > kCapacity) {
    index_.erase(lru_.back().fingerprint);
    lru_.pop_back();
    stats_.lru_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace cfnet::serve
