#include "core/platform.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "core/columnar_records.h"
#include "core/investor_graph.h"
#include "dfs/commit.h"
#include "dfs/jsonl.h"
#include "util/logging.h"

namespace cfnet::core {
namespace {

/// Decodes every JSON line of the committed segment at `path` as a Record
/// and appends the investment edges it contributes to `deltas` as adds.
template <typename Record>
Status AppendSegmentEdges(const dfs::MiniDfs& dfs, const std::string& path,
                          size_t* records_parsed,
                          std::vector<graph::EdgeDelta>* deltas) {
  CFNET_ASSIGN_OR_RETURN(std::string payload, dfs::ReadCommitted(dfs, path));
  Status status;
  dfs::ForEachJsonLine(payload, [&](std::string_view line, int64_t) {
    Result<Record> record = DecodeLine<Record>(line);
    status = record.status();
    if (!status.ok()) return false;
    ++*records_parsed;
    for (uint64_t key : InvestmentEdges(*record)) {
      const auto [investor, company] = UnpackEdge(key);
      deltas->push_back({investor, company, /*add=*/true});
    }
    return true;
  });
  return status;
}

}  // namespace

ExploratoryPlatform::ExploratoryPlatform(const Options& options)
    : options_(options) {
  world_ = std::make_unique<synth::World>(synth::World::Generate(options.world));
  web_ = std::make_unique<net::SocialWeb>(world_.get());
  dfs_ = std::make_unique<dfs::MiniDfs>();
  crawler::CrawlConfig crawl = options.crawl;
  // Fires after every successful crawl/replay flush; the platform outlives
  // the crawler it hands this to.
  crawl.post_flush_hook = [this] { return CompactSnapshots(); };
  crawler_ = std::make_unique<crawler::Crawler>(web_.get(), dfs_.get(),
                                                std::move(crawl));
  ctx_ = std::make_shared<dataflow::ExecutionContext>(
      options.analytics_parallelism == 0 ? ThreadPool::DefaultParallelism()
                                         : options.analytics_parallelism);
}

Status ExploratoryPlatform::CollectData() {
  CFNET_RETURN_IF_ERROR(crawler_->Run());
  collected_ = true;
  return Status::OK();
}

Status ExploratoryPlatform::CompactSnapshots() {
  ThreadPool* pool = &ctx_->pool();
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<StartupRecord>(
      dfs_.get(), crawler_->StartupSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<UserRecord>(
      dfs_.get(), crawler_->UserSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<CrunchBaseRecord>(
      dfs_.get(), crawler_->CrunchBaseSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<FacebookRecord>(
      dfs_.get(), crawler_->FacebookSnapshotDir(), pool));
  CFNET_RETURN_IF_ERROR(CompactSnapshotDir<TwitterRecord>(
      dfs_.get(), crawler_->TwitterSnapshotDir(), pool));
  return Status::OK();
}

Result<AnalysisInputs> ExploratoryPlatform::LoadInputs() {
  if (!collected_) {
    return Status::FailedPrecondition("call CollectData() before LoadInputs()");
  }

  const bool salvage = options_.salvage_loads;
  if (salvage) {
    // Repair before reading: orphaned temps vanish, damaged shards move
    // under /.quarantine (and out of the List() results below).
    dfs::RecoveryReport swept =
        dfs::SweepDir(dfs_.get(), options_.crawl.snapshot_dir);
    scan_report_.quarantined_paths.insert(scan_report_.quarantined_paths.end(),
                                          swept.quarantined_paths.begin(),
                                          swept.quarantined_paths.end());
  }
  // Each directory loads from its columnar compaction when one is fresh
  // (block-parallel, no JSON parse) and falls back to the JSON shards
  // otherwise — see core/columnar_records.h for the staleness contract.
  ThreadPool* pool = &ctx_->pool();
  AnalysisInputs inputs;
  CFNET_ASSIGN_OR_RETURN(
      inputs.startups,
      LoadSnapshotRecords<StartupRecord>(*dfs_, crawler_->StartupSnapshotDir(),
                                         pool, salvage, &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.users,
      LoadSnapshotRecords<UserRecord>(*dfs_, crawler_->UserSnapshotDir(), pool,
                                      salvage, &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.crunchbase,
      LoadSnapshotRecords<CrunchBaseRecord>(
          *dfs_, crawler_->CrunchBaseSnapshotDir(), pool, salvage,
          &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.facebook,
      LoadSnapshotRecords<FacebookRecord>(
          *dfs_, crawler_->FacebookSnapshotDir(), pool, salvage,
          &scan_report_));
  CFNET_ASSIGN_OR_RETURN(
      inputs.twitter,
      LoadSnapshotRecords<TwitterRecord>(*dfs_, crawler_->TwitterSnapshotDir(),
                                         pool, salvage, &scan_report_));
  return inputs;
}

Result<ExploratoryPlatform::EpochAdvanceReport>
ExploratoryPlatform::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  EpochAdvanceReport report;
  if (epoch_maintainer_ == nullptr) {
    epoch_maintainer_ = std::make_unique<EpochMaintainer>();
  }

  // Segments are immutable, so a consumed one that is gone (quarantine,
  // resume rollback) or changed size means history was rewritten: rebuild
  // from every live segment. Otherwise only segments no epoch consumed yet
  // are read, so an idle round lists and sizes files but reads none.
  const std::vector<std::string> user_files =
      SplitSnapshotFiles(dfs_->List(crawler_->UserSnapshotDir())).json;
  const std::vector<std::string> crunchbase_files =
      SplitSnapshotFiles(dfs_->List(crawler_->CrunchBaseSnapshotDir())).json;
  std::map<std::string, uint64_t> live;  // path -> file size
  for (const auto* files : {&user_files, &crunchbase_files}) {
    for (const std::string& path : *files) {
      CFNET_ASSIGN_OR_RETURN(live[path], dfs_->FileSize(path));
    }
  }
  report.watermark_reset =
      !std::includes(live.begin(), live.end(), consumed_segments_.begin(),
                     consumed_segments_.end());
  const bool full_rebuild =
      !epoch_maintainer_->has_epoch() || report.watermark_reset;
  std::map<std::string, uint64_t> consumed;
  if (!full_rebuild) consumed = consumed_segments_;
  // Marks `path` consumed; false when an earlier epoch already consumed it.
  auto take = [&](const std::string& path) {
    if (!consumed.emplace(path, live[path]).second) return false;
    ++report.files_scanned;
    return true;
  };

  std::vector<graph::EdgeDelta> deltas;
  for (const std::string& path : user_files) {
    if (!take(path)) continue;
    CFNET_RETURN_IF_ERROR(AppendSegmentEdges<UserRecord>(
        *dfs_, path, &report.records_parsed, &deltas));
  }
  for (const std::string& path : crunchbase_files) {
    if (!take(path)) continue;
    CFNET_RETURN_IF_ERROR(AppendSegmentEdges<CrunchBaseRecord>(
        *dfs_, path, &report.records_parsed, &deltas));
  }
  consumed_segments_ = std::move(consumed);

  if (full_rebuild) {
    report.full_rebuild = true;
    std::vector<std::pair<uint64_t, uint64_t>> edges;
    edges.reserve(deltas.size());
    for (const graph::EdgeDelta& d : deltas) {
      edges.emplace_back(d.left_id, d.right_id);
    }
    epoch_maintainer_->FullBuild(edges);
  } else {
    epoch_maintainer_->Advance(deltas);
  }
  report.build = epoch_maintainer_->last_report();
  return report;
}

}  // namespace cfnet::core
