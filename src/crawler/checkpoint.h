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

/// One checkpoint: how the crawl state changed since its parent checkpoint.
/// A base (`parent_seq` 0) is a step from the empty state, so it holds a
/// whole state; FoldStep applies a delta to a state, and the fold of a base
/// and the deltas chained on it is again a base.
///
/// The small fields are replaced whole by every step. The large ones only
/// grow between checkpoints, so a step carries what it adds: seen ids,
/// crawled companies and committed snapshot segments, plus the segments it
/// retires (consumed dead letters).
struct CheckpointStep {
  int64_t seq = 0;         // stamped by CheckpointStore::Save
  int64_t parent_seq = 0;  // 0 for a base; stamped by CheckpointStore::Save

  // --- replaced whole -------------------------------------------------------
  std::string phase;          // phase to run / continue (kPhase* constants)
  int64_t phase_cursor = 0;   // companies already processed within `phase`
  int64_t bfs_round = 0;
  std::vector<uint64_t> company_frontier;
  std::vector<uint64_t> user_frontier;
  std::vector<std::string> twitter_tokens;
  std::string facebook_token;
  std::vector<int64_t> worker_clocks;
  /// Report counters so far (fetch/makespan folded across incarnations).
  /// `wall_seconds` is not stored.
  CrawlReport report;

  // --- added by this step ---------------------------------------------------
  /// Ids first seen, as runs: each BFS round's sorted new frontier (the
  /// companies' first run is the seed listing, in listing order).
  std::vector<uint64_t> seen_companies;
  std::vector<uint64_t> seen_users;
  /// In discovery order; the crawler restores the by-id order of a finished
  /// BFS itself.
  std::vector<CrawledCompany> companies;
  /// Committed JSON-lines segments under the snapshot dir, sorted; stamped
  /// by CheckpointStore::Save. The checkpoint flushes every writer first,
  /// so a checkpoint boundary is a segment boundary, and the folded list
  /// holds exactly the records the state covers.
  std::vector<std::string> snapshot_segments;
  /// Segments the fold drops, sorted; empty in a base. Stamped by Save.
  std::vector<std::string> retired_segments;

  bool operator==(const CheckpointStep&) const = default;
};

/// Applies `step` to `state` (a base): replaced-whole fields are copied,
/// ids and companies appended, segments merged in and retired ones dropped
/// (the state's segments are moved, not copied). `state` stays a base and
/// takes `step.seq`.
void FoldStep(const CheckpointStep& step, CheckpointStep* state);

/// The step payload: magic and version 3, then varints (dfs/columnar's
/// codecs; id lists as zig-zag delta columns). Integrity comes from the
/// commit footer; DecodeStep bounds-checks every length, so any bytes yield
/// a step or Corruption.
std::string EncodeStep(const CheckpointStep& step);
Result<CheckpointStep> DecodeStep(std::string_view payload);

/// Checkpoint steps in MiniDFS, one committed file `ckpt-<seq>` per Save,
/// read back through the dfs/commit footer contract. Each step names its
/// parent, and the loader follows those links, never file order.
///
/// Retention counts chains (a base and its deltas): Save deletes a chain
/// once `keep` newer bases have committed, so a damaged newest base still
/// falls back to the previous chain.
class CheckpointStore {
 public:
  CheckpointStore(dfs::MiniDfs* dfs, std::string dir, int keep = 2);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Commits `step`, the change since the previous Save (or since the
  /// checkpoint LoadLatestValid restored; from the empty state when there
  /// is neither). `segments` is every committed segment the state covers,
  /// sorted; Save stamps its difference from the previous checkpoint's list
  /// into the step. The step is written as a delta on the previous
  /// checkpoint, or as a base — the fold of the chain and `step` — when
  /// there is no chain yet or the deltas since the current base outweigh
  /// that base in bytes. Also stamps `step->seq` and `step->parent_seq`.
  /// `step->report.checkpoint_bytes` is what committed before this step;
  /// once the step commits, Save adds its payload bytes to it. After a
  /// failed commit the next Save writes a base.
  Status Save(CheckpointStep* step, const std::vector<std::string>& segments);

  /// The fold of the newest checkpoint whose base and every delta up to it
  /// pass ReadCommitted and decode, its `checkpoint_bytes` counting that
  /// checkpoint's own payload; NotFound when there is none. The next Save
  /// chains from it.
  Result<CheckpointStep> LoadLatestValid();

  /// Checkpoint file paths, oldest first.
  std::vector<std::string> ListFiles() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(int64_t seq) const;
  Status DeleteChainsBefore(int64_t seq);

  dfs::MiniDfs* dfs_;
  std::string dir_;  // normalized to end with '/'
  int keep_;
  int64_t next_seq_ = 1;

  // The chain the next Save extends (head_seq_ 0: none, write a base).
  int64_t head_seq_ = 0;
  /// The state at the last Save: the fold of the restored checkpoint and
  /// every step handed to Save since. Bases are written from it, and the
  /// next step's segments are diffed against it.
  CheckpointStep fold_;
  uint64_t base_bytes_ = 0;
  uint64_t delta_bytes_ = 0;  // deltas committed since the base
  /// Bases this store committed or restored a chain from, oldest first.
  std::vector<int64_t> bases_;
};

}  // namespace cfnet::crawler

#endif  // CFNET_CRAWLER_CHECKPOINT_H_
