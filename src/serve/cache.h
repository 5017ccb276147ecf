#ifndef CFNET_SERVE_CACHE_H_
#define CFNET_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "json/json.h"

namespace cfnet::serve {

/// LRU result cache keyed on (query fingerprint, snapshot epoch), holding
/// `kCapacity` entries. Because the epoch is part of the key and a
/// published snapshot never changes, an entry cannot go stale: a snapshot
/// hot-swap naturally invalidates every cached answer — a query against the
/// new epoch can never be served bytes computed from the old one.
/// `EvictEpochsBefore` additionally drops the dead entries eagerly so they
/// stop occupying LRU capacity.
///
/// Bodies are held behind shared_ptr so a hit hands out a reference without
/// copying the JSON under the lock.
class ResultCache {
 public:
  struct Stats {
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> inserts{0};
    std::atomic<int64_t> lru_evictions{0};
    std::atomic<int64_t> epoch_evictions{0};
  };

  static constexpr size_t kCapacity = 8192;

  /// Returns the cached body for (fingerprint, epoch), refreshing its LRU
  /// position, or nullptr on a miss.
  std::shared_ptr<const json::Json> Lookup(uint64_t fingerprint,
                                           uint64_t epoch);

  void Insert(uint64_t fingerprint, uint64_t epoch,
              std::shared_ptr<const json::Json> body);

  /// Drops every entry whose epoch predates `epoch` (hot-swap cleanup).
  size_t EvictEpochsBefore(uint64_t epoch);

  size_t size() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Key {
    uint64_t fingerprint;
    uint64_t epoch;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.fingerprint ^ (k.epoch * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const json::Json> body;
  };

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace cfnet::serve

#endif  // CFNET_SERVE_CACHE_H_
