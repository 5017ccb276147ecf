#ifndef CFNET_CRAWLER_PERIODIC_H_
#define CFNET_CRAWLER_PERIODIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crawler/fetch.h"
#include "dfs/dfs.h"
#include "json/json.h"
#include "net/social_web.h"
#include "util/result.h"

namespace cfnet::crawler {

/// Configuration of the daily cohort crawl.
struct PeriodicCrawlConfig {
  std::string snapshot_dir = "/longitudinal";
  FetchPolicy fetch;
};

/// One day's collection summary.
struct DaySnapshotReport {
  int day = 0;
  int64_t raising_companies = 0;
  int64_t profiles_stored = 0;
  int64_t twitter_profiles = 0;
  FetchCounters fetch;
};

/// §3's "mechanisms to crawl these sources periodically and track them over
/// time", §7's "daily data collection task": each CrawlDay call lists the
/// currently-fundraising startups, fetches their AngelList profiles (plus
/// Twitter engagement), and commits a dated JSON-lines snapshot to MiniDFS
/// (segments `<snapshot_dir>/day-<d>-<seq>.jsonl`, records tagged with
/// "day").
///
/// The caller passes a fresh SocialWeb each day (services cache pieces of
/// the world at construction, and the world may have evolved in between) —
/// exactly like re-hitting the live APIs.
class PeriodicCohortCrawler {
 public:
  PeriodicCohortCrawler(dfs::MiniDfs* dfs, PeriodicCrawlConfig config = {});

  /// Crawls day `day`'s raising cohort.
  Result<DaySnapshotReport> CrawlDay(net::SocialWeb* web, int day);

  /// Reads back one day's snapshot records (every segment of the day, in
  /// write order); NotFound when the day was never crawled.
  Result<std::vector<json::Json>> ReadDay(int day) const;

  /// Segment prefix of a day's snapshot.
  std::string DayPrefix(int day) const;

 private:
  dfs::MiniDfs* dfs_;
  PeriodicCrawlConfig config_;
};

}  // namespace cfnet::crawler

#endif  // CFNET_CRAWLER_PERIODIC_H_
