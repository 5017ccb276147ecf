#ifndef CFNET_CORE_PLATFORM_H_
#define CFNET_CORE_PLATFORM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crawler/crawler.h"
#include "core/epoch_maintainer.h"
#include "core/records.h"
#include "dataflow/context.h"
#include "dataflow/dataset.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "net/social_web.h"
#include "synth/world.h"
#include "util/result.h"

namespace cfnet::core {

/// Every typed snapshot, loaded and parsed — the input to all analyses.
struct AnalysisInputs {
  std::vector<StartupRecord> startups;
  std::vector<UserRecord> users;
  std::vector<CrunchBaseRecord> crunchbase;
  std::vector<FacebookRecord> facebook;
  std::vector<TwitterRecord> twitter;
};

/// The paper's "extensible exploratory platform" (Figure 2), end to end:
/// a synthetic ground-truth world behind simulated Web APIs, parallel
/// crawlers writing JSON snapshots into MiniDFS, and a MiniSpark execution
/// context the analyses run on.
///
/// Typical use:
///   ExploratoryPlatform::Options opts;
///   opts.world.scale = 0.05;
///   ExploratoryPlatform platform(opts);
///   CFNET_CHECK(platform.CollectData().ok());
///   auto inputs = platform.LoadInputs();
class ExploratoryPlatform {
 public:
  struct Options {
    synth::WorldConfig world;
    crawler::CrawlConfig crawl;
    /// Worker threads for the analytics engine (0 = hardware default).
    size_t analytics_parallelism = 0;
    /// Corruption-aware loads: before reading, sweep the snapshot tree
    /// (GC orphaned temp files, quarantine damaged shards), then scan in
    /// salvage mode — undecodable lines are dropped and counted instead of
    /// failing the analysis. `scan_report()` surfaces what was skipped.
    /// Off by default: a healthy pipeline should fail loudly on damage it
    /// did not expect.
    bool salvage_loads = false;
  };

  /// What one AdvanceEpoch() round did.
  struct EpochAdvanceReport {
    bool full_rebuild = false;     // baseline build (first round or reset)
    bool watermark_reset = false;  // consumed segment gone/changed -> rescan
    size_t files_scanned = 0;
    size_t records_parsed = 0;
    EpochBuildReport build;
  };

  explicit ExploratoryPlatform(const Options& options);

  ExploratoryPlatform(const ExploratoryPlatform&) = delete;
  ExploratoryPlatform& operator=(const ExploratoryPlatform&) = delete;

  /// Runs the full crawl pipeline (AngelList BFS + CrunchBase/Facebook/
  /// Twitter augmentation), writing snapshots into the DFS.
  Status CollectData();

  /// Parses every snapshot into typed records (parallel, via the dataflow
  /// engine). Requires CollectData() first. Each call reads the snapshots
  /// afresh, so records a dead-letter replay committed are included.
  Result<AnalysisInputs> LoadInputs();

  /// Compacts every snapshot directory's JSON shards into columnar files
  /// (no-op for up-to-date directories), which loads then prefer (see
  /// core/columnar_records.h); JSON shards stay in place as the
  /// write/replay boundary and the fallback when a columnar file is stale
  /// or damaged. Runs automatically after each crawl flush; exposed for
  /// tests and for re-compacting after out-of-band snapshot edits.
  Status CompactSnapshots();

  const synth::World& world() const { return *world_; }
  net::SocialWeb& web() { return *web_; }
  dfs::MiniDfs& dfs() { return *dfs_; }
  crawler::Crawler& crawler() { return *crawler_; }
  const crawler::CrawlReport& crawl_report() const {
    return crawler_->report();
  }
  /// Aggregate scan accounting across every LoadInputs call: the JSON
  /// shards and columnar files read (and how many shards' footers
  /// verified), and in salvage mode the lines and blocks dropped and the
  /// damaged paths decoded leniently or quarantined by the pre-load sweep.
  const dfs::ScanReport& scan_report() const { return scan_report_; }
  std::shared_ptr<dataflow::ExecutionContext> context() { return ctx_; }

  /// Incremental epoch production: reads the user/CrunchBase snapshot
  /// segments not consumed yet, takes their investment edges by
  /// BuildInvestorGraph's per-record rule (core/investor_graph.h) as a
  /// delta batch, and advances the EpochMaintainer — a full baseline build
  /// on the first round (or after a watermark reset: a consumed segment
  /// vanished or changed size, e.g. under a resume rollback or a
  /// quarantine), the delta path afterwards. An idle round lists and sizes
  /// segments but reads none. Numbers nothing: the caller serves the
  /// maintainer's artifacts, and serve::EpochStore::Publish numbers the
  /// epoch (examples/serve_demo.cpp). Thread-safe.
  Result<EpochAdvanceReport> AdvanceEpoch();

  /// The maintainer behind AdvanceEpoch (nullptr before the first call).
  /// The returned artifacts stay valid until the next AdvanceEpoch().
  const EpochMaintainer* epoch_maintainer() const {
    return epoch_maintainer_.get();
  }

 private:
  Options options_;
  std::unique_ptr<synth::World> world_;
  std::unique_ptr<net::SocialWeb> web_;
  std::unique_ptr<dfs::MiniDfs> dfs_;
  std::unique_ptr<crawler::Crawler> crawler_;
  std::shared_ptr<dataflow::ExecutionContext> ctx_;
  bool collected_ = false;
  dfs::ScanReport scan_report_;

  /// Incremental-epoch state, guarded by epoch_mu_.
  std::mutex epoch_mu_;
  std::unique_ptr<EpochMaintainer> epoch_maintainer_;
  /// Segments already turned into deltas (path -> file size).
  std::map<std::string, uint64_t> consumed_segments_;
};

}  // namespace cfnet::core

#endif  // CFNET_CORE_PLATFORM_H_
