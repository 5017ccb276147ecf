#ifndef CFNET_SERVE_CACHE_H_
#define CFNET_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "json/json.h"

namespace cfnet::serve {

/// LRU result cache over one snapshot epoch, keyed on the query fingerprint
/// and holding at most `kCapacity` entries. The first Lookup or Insert for
/// a newer epoch drops every entry of the held one, and calls for an older
/// epoch miss and insert nothing; a published snapshot never changes, so a
/// query against the new epoch can never be served bytes computed from the
/// old one.
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

  /// Returns the cached body for `fingerprint` at `epoch`, refreshing its
  /// LRU position, or nullptr on a miss.
  std::shared_ptr<const json::Json> Lookup(uint64_t fingerprint,
                                           uint64_t epoch);

  void Insert(uint64_t fingerprint, uint64_t epoch,
              std::shared_ptr<const json::Json> body);

  size_t size() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t fingerprint;
    std::shared_ptr<const json::Json> body;
  };

  /// Moves the cache to `epoch` when it is newer than the held one, dropping
  /// every entry; false when `epoch` is older.
  bool AdvanceLocked(uint64_t epoch);

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;  // the epoch every entry was computed against
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace cfnet::serve

#endif  // CFNET_SERVE_CACHE_H_
