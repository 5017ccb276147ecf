#ifndef CFNET_CRAWLER_CHECKPOINT_H_
#define CFNET_CRAWLER_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crawler/crawler.h"
#include "dfs/dfs.h"
#include "util/result.h"
#include "util/status.h"

namespace cfnet::crawler {

/// Everything a crawler needs to continue after a crash: BFS frontier and
/// seen sets, per-phase progress cursor, token-pool state, worker clocks,
/// accumulated report counters, and the snapshot segments that were durable
/// at the checkpoint (exactly-once records: a resume drops every other
/// snapshot file).
struct CheckpointState {
  int64_t seq = 0;            // stamped by CheckpointStore::Save
  std::string phase;          // phase to run / continue (kPhase* constants)
  int64_t phase_cursor = 0;   // companies already processed within `phase`
  int64_t bfs_round = 0;
  std::vector<uint64_t> company_frontier;
  std::vector<uint64_t> user_frontier;
  std::vector<uint64_t> seen_companies;  // sorted
  std::vector<uint64_t> seen_users;      // sorted
  std::vector<CrawledCompany> companies;
  std::vector<std::string> twitter_tokens;
  std::string facebook_token;
  std::vector<int64_t> worker_clocks;
  /// Committed JSON-lines segments under the snapshot dir, sorted. The
  /// checkpoint flushes every writer first, so this is a segment boundary.
  std::vector<std::string> snapshot_segments;
  /// Report counters so far (fetch/makespan folded across incarnations).
  CrawlReport report;
};

/// Versioned checkpoint files in MiniDFS, committed and read back through
/// the dfs/commit footer contract. Files are named `ckpt-<seq>` with
/// monotonically increasing sequence numbers; `Save` prunes all but the
/// newest `keep`, and `LoadLatestValid` skips files that are damaged or
/// fail to parse (a torn write surfaces as a fallback to the previous
/// checkpoint, not a crash).
class CheckpointStore {
 public:
  CheckpointStore(dfs::MiniDfs* dfs, std::string dir, int keep = 2);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Stamps `state->seq`, writes the checkpoint, prunes old ones.
  Status Save(CheckpointState* state);

  /// Newest checkpoint whose footer verifies and whose payload parses;
  /// NotFound when none exists (or none is valid).
  Result<CheckpointState> LoadLatestValid() const;

  /// Checkpoint file paths, oldest first.
  std::vector<std::string> ListFiles() const;

  const std::string& dir() const { return dir_; }

  /// Payload format: one JSON document. Integrity comes from the commit
  /// footer, which ReadCommitted verifies before Deserialize sees a byte.
  static std::string Serialize(const CheckpointState& state);
  static Result<CheckpointState> Deserialize(std::string_view payload);

 private:
  dfs::MiniDfs* dfs_;
  std::string dir_;  // normalized to end with '/'
  int keep_;
  int64_t next_seq_ = 1;
};

}  // namespace cfnet::crawler

#endif  // CFNET_CRAWLER_CHECKPOINT_H_
