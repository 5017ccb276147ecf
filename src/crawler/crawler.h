#ifndef CFNET_CRAWLER_CRAWLER_H_
#define CFNET_CRAWLER_CRAWLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "crawler/fetch.h"
#include "dfs/dfs.h"
#include "net/social_web.h"
#include "util/result.h"
#include "util/status.h"

namespace cfnet::crawler {

struct CheckpointStep;
class CheckpointStore;

/// Pipeline phase names, in execution order. They key checkpoints,
/// dead-letter directories and degradation reports.
inline constexpr std::string_view kPhaseBfs = "bfs";
inline constexpr std::string_view kPhaseCrunchBase = "crunchbase";
inline constexpr std::string_view kPhaseFacebook = "facebook";
inline constexpr std::string_view kPhaseTwitter = "twitter";
inline constexpr std::string_view kPhaseDone = "done";

/// Breaker trips an augmentation phase may absorb before the phase
/// degrades: remaining entities go straight to the dead-letter log and the
/// crawl continues without the source.
inline constexpr int kBreakerTripBudget = 2;

/// Crawl pipeline configuration.
struct CrawlConfig {
  /// Parallel crawler workers (each carries its own virtual clock).
  int num_workers = 8;
  /// Simulated machines for the Twitter crawl; each registers up to
  /// `twitter_apps_per_machine` apps (Twitter caps apps per user at 5), and
  /// the resulting token pool is shared round-robin by the workers.
  int num_twitter_machines = 2;
  int twitter_apps_per_machine = 5;
  FetchPolicy fetch;
  /// DFS directory snapshots are written under.
  std::string snapshot_dir = "/crawl";
  bool store_snapshots = true;
  /// Safety valve for tests: stop the BFS after this many rounds (0 = run
  /// until the frontier is exhausted, as the paper does).
  int max_bfs_rounds = 0;
  /// Invoked after a successful crawl (or dead-letter replay) has flushed
  /// every snapshot shard. The platform installs snapshot compaction here
  /// (JSON shards -> columnar files); the crawler itself stays
  /// record-agnostic. A failing hook fails the crawl it rode on.
  std::function<Status()> post_flush_hook;

  // --- fault tolerance ----------------------------------------------------
  /// Per-service circuit breaker tuning (one breaker per augmentation
  /// source, shared by all workers).
  CircuitBreakerConfig breaker;

  // --- crash-safe checkpointing -------------------------------------------
  /// Periodically persist what the crawl state gained (frontier, seen ids,
  /// cursors, token pool, snapshot segments) as CRC-validated checkpoint
  /// steps so `Resume()` can continue after a crash without re-fetching
  /// done work.
  bool checkpointing = true;
  /// Kept outside `snapshot_dir` so disabling snapshots does not disable
  /// durability metadata.
  std::string checkpoint_dir = "/checkpoints";
  int checkpoint_every_rounds = 1;  // BFS rounds between checkpoints
  int checkpoint_chunk = 1024;      // augmentation items between checkpoints
  int checkpoints_to_keep = 2;      // chains (a base and its deltas) kept

  // --- crash simulation (fault-injection tests) ---------------------------
  /// Abort the crawl mid-BFS after this many rounds (0 = never).
  int crash_after_bfs_rounds = 0;
  /// Abort right after this phase completes (and checkpoints), e.g.
  /// "crunchbase"; empty = never.
  std::string crash_after_phase;
};

/// One augmentation source that was given up on: its circuit breaker
/// exceeded the trip budget, so the phase was skipped past that point
/// instead of failing the whole crawl.
struct DegradedReport {
  std::string phase;
  int64_t breaker_trips = 0;
  int64_t dead_lettered = 0;
  std::string reason;

  bool operator==(const DegradedReport&) const = default;
};

/// Aggregated crawl outcome.
struct CrawlReport {
  int64_t companies_crawled = 0;
  int64_t users_crawled = 0;
  int64_t bfs_rounds = 0;

  int64_t crunchbase_profiles = 0;
  int64_t crunchbase_matched_by_url = 0;
  int64_t crunchbase_matched_by_search = 0;
  int64_t crunchbase_ambiguous_skipped = 0;
  int64_t crunchbase_backlink_mismatches = 0;
  int64_t crunchbase_misses = 0;

  int64_t facebook_profiles = 0;
  int64_t twitter_profiles = 0;
  int64_t twitter_tokens = 0;

  FetchCounters fetch;           // summed over workers
  int64_t makespan_micros = 0;   // simulated (max worker clock)
  double wall_seconds = 0;       // real time spent crawling

  // Fault-tolerance counters.
  int64_t breaker_trips = 0;
  int64_t checkpoint_writes = 0;
  int64_t checkpoint_restores = 0;
  /// Payload bytes committed by checkpoints (carried across a resume).
  int64_t checkpoint_bytes = 0;
  int64_t dead_lettered_ids = 0;
  int64_t dead_letters_replayed = 0;
  /// Storage recovery: orphaned temp files GC'd and corrupt-footer files
  /// quarantined by the sweeps Resume() runs before trusting the snapshot
  /// tree (see dfs/commit.h).
  int64_t storage_temps_removed = 0;
  int64_t storage_quarantined = 0;
  std::vector<DegradedReport> degraded_phases;

  bool operator==(const CrawlReport&) const = default;
};

/// Minimal in-memory record kept per crawled company, feeding the
/// augmentation phases (everything else lives in the DFS snapshots).
struct CrawledCompany {
  uint64_t id = 0;
  std::string name;
  std::string twitter_url;
  std::string facebook_url;
  std::string crunchbase_url;

  bool operator==(const CrawledCompany&) const = default;
};

/// High-throughput parallel crawler over the simulated web, reproducing the
/// paper's collection pipeline (§3):
///
///  1. AngelList frontier BFS seeded by the "currently raising" listing:
///     startups -> their followers -> everything those users follow -> ...
///  2. One-time CrunchBase augmentation per discovered startup (URL join
///     when AngelList lists it, unique-name search otherwise).
///  3. Facebook Graph crawl of startups with Facebook links (long-lived
///     token obtained via the OAuth exchange).
///  4. Twitter crawl of startups with Twitter links (token pool sharded
///     across simulated machines to beat the 180-calls/15-min limit).
///
/// Snapshots are written to MiniDFS as JSON-lines, one directory per
/// source, as immutable segments `part-<worker>-<seq>.jsonl` (one per
/// flush).
///
/// Fault tolerance: at BFS-round and augmentation-chunk boundaries the
/// crawler checkpoints what its state gained since the last checkpoint
/// (see crawler/checkpoint.h); `Resume()` restores the newest checkpoint
/// whose chain is intact, deletes every snapshot file it does not list
/// (exactly-once records), and continues. Each
/// augmentation source sits behind a circuit breaker; a source that trips
/// past `kBreakerTripBudget` degrades gracefully — its remaining entities
/// are dead-lettered for later `ReplayDeadLetters()` instead of failing the
/// crawl.
class Crawler {
 public:
  Crawler(net::SocialWeb* web, dfs::MiniDfs* dfs, CrawlConfig config);
  ~Crawler();  // out of line: Shard is incomplete here

  Crawler(const Crawler&) = delete;
  Crawler& operator=(const Crawler&) = delete;

  /// Runs all four phases from scratch.
  Status Run();

  /// Restores the latest valid checkpoint and continues the crawl from
  /// there (falling back to a fresh `Run()` when no checkpoint exists).
  /// Records written after the restored checkpoint are discarded before
  /// re-crawling, so snapshot shards never carry duplicates.
  Status Resume();

  /// Re-attempts every dead-lettered entity (after the faults that caused
  /// them cleared), removing replayed entries from the log. Safe to call
  /// repeatedly until the log drains. The consumed log segments are deleted
  /// only once the checkpoint recording the replay's output has committed,
  /// so a crash anywhere inside leaves a log `Resume()` can replay again.
  Status ReplayDeadLetters();

  /// Individual phases (Run calls these in order; exposed for tests and
  /// partial pipelines). RunAngelListBfs must come first.
  Status RunAngelListBfs();
  Status RunCrunchBaseAugmentation();
  Status RunFacebookCrawl();
  Status RunTwitterCrawl();

  const CrawlReport& report() const { return report_; }
  const std::vector<CrawledCompany>& crawled_companies() const {
    return companies_;
  }

  /// Snapshot locations (JSON-lines file sets under snapshot_dir).
  std::string StartupSnapshotDir() const { return config_.snapshot_dir + "/angellist/startups/"; }
  std::string UserSnapshotDir() const { return config_.snapshot_dir + "/angellist/users/"; }
  std::string CrunchBaseSnapshotDir() const { return config_.snapshot_dir + "/crunchbase/"; }
  std::string FacebookSnapshotDir() const { return config_.snapshot_dir + "/facebook/"; }
  std::string TwitterSnapshotDir() const { return config_.snapshot_dir + "/twitter/"; }
  /// Dead-letter log for one augmentation phase (JSON-lines of
  /// {id, phase, reason}, sharded per worker).
  std::string DeadLetterDir(std::string_view phase) const {
    return config_.snapshot_dir + "/deadletter/" + std::string(phase) + "/";
  }

  /// Per-service circuit breakers (for tests and operators).
  const CircuitBreaker& crunchbase_breaker() const { return *crunchbase_breaker_; }
  const CircuitBreaker& facebook_breaker() const { return *facebook_breaker_; }
  const CircuitBreaker& twitter_breaker() const { return *twitter_breaker_; }

 private:
  class Shard;  // per-worker state (clock, counters, snapshot writers)
  enum class ItemOutcome { kOk, kSkipped, kFailed };
  using ProcessFn = ItemOutcome (Crawler::*)(const CrawledCompany&, Shard&);

  /// Runs `fn(item_index, shard)` for every index in [0, n) striped across
  /// workers; merges shard counters afterwards.
  void RunStriped(size_t n, const std::function<void(size_t, Shard&)>& fn);

  Status SetUpTokens();
  void MergeCounters();
  FetchCounters SumShardCounters() const;
  int64_t MaxShardClock() const;
  int64_t SumBreakerTrips() const;

  /// Phase driver starting at `phase_idx` into the canonical phase order,
  /// with `cursor` companies of that phase already done (resume path).
  Status RunFrom(size_t phase_idx, size_t cursor);
  /// Checkpoints the transition to `next` and fires the crash hook.
  Status AfterPhase(std::string_view completed, std::string_view next);

  /// Chunked, breaker-guarded, checkpointed augmentation phase loop.
  Status RunPhase(std::string_view phase, size_t start_cursor);
  ItemOutcome ProcessCrunchBase(const CrawledCompany& cc, Shard& shard);
  ItemOutcome ProcessFacebook(const CrawledCompany& cc, Shard& shard);
  ItemOutcome ProcessTwitter(const CrawledCompany& cc, Shard& shard);
  CircuitBreaker* BreakerFor(std::string_view phase);
  ProcessFn ProcessFor(std::string_view phase) const;

  Status DeadLetter(Shard& shard, std::string_view phase, uint64_t id,
                    std::string_view reason);

  /// Flushes every writer, then checkpoints what the crawl state gained
  /// since the last checkpoint. The checkpointed segment list becomes every
  /// committed snapshot segment except `retired` (consumed dead letters).
  Status SaveCheckpoint(std::string_view phase, size_t cursor,
                        const std::set<std::string>& retired = {});
  Status RestoreFromCheckpoint(const CheckpointStep& state);
  /// Deletes every snapshot file not in `keep` (checkpoints excepted).
  Status DropSnapshotsOutside(const std::vector<std::string>& keep);
  Status FlushAllShards();

  net::SocialWeb* web_;
  dfs::MiniDfs* dfs_;
  CrawlConfig config_;
  CrawlReport report_;
  std::mutex report_mu_;  // guards phase counters updated from workers

  std::vector<std::unique_ptr<Shard>> shards_;

  // Discovered-entity state (BFS bookkeeping). The frontiers and round
  // counter live here so checkpoints can capture mid-BFS progress.
  std::unordered_set<uint64_t> seen_companies_;
  std::unordered_set<uint64_t> seen_users_;
  std::vector<CrawledCompany> companies_;
  std::vector<uint64_t> company_frontier_;
  std::vector<uint64_t> user_frontier_;
  int64_t bfs_round_ = 0;
  bool bfs_seeded_ = false;

  // Tokens.
  std::vector<std::string> twitter_tokens_;
  std::string facebook_token_;

  // Fault tolerance.
  std::unique_ptr<CircuitBreaker> crunchbase_breaker_;
  std::unique_ptr<CircuitBreaker> facebook_breaker_;
  std::unique_ptr<CircuitBreaker> twitter_breaker_;
  std::unique_ptr<CheckpointStore> checkpoints_;
  /// What the state gained since the last checkpoint, for the next step
  /// (touched only when checkpointing is on): the ids each BFS round saw
  /// first and the companies it crawled.
  std::vector<uint64_t> unsaved_seen_companies_;
  std::vector<uint64_t> unsaved_seen_users_;
  std::vector<CrawledCompany> unsaved_companies_;
  /// Counters carried over from the incarnation(s) before a resume.
  FetchCounters fetch_base_;
  int64_t breaker_trips_base_ = 0;
};

}  // namespace cfnet::crawler

#endif  // CFNET_CRAWLER_CRAWLER_H_
