#include "crawler/periodic.h"

#include <algorithm>
#include <iterator>

#include "dfs/jsonl.h"
#include "util/string_util.h"

namespace cfnet::crawler {

PeriodicCohortCrawler::PeriodicCohortCrawler(dfs::MiniDfs* dfs,
                                             PeriodicCrawlConfig config)
    : dfs_(dfs), config_(std::move(config)) {}

std::string PeriodicCohortCrawler::DayPrefix(int day) const {
  return config_.snapshot_dir + "/day-" + std::to_string(day) + "-";
}

Result<DaySnapshotReport> PeriodicCohortCrawler::CrawlDay(net::SocialWeb* web,
                                                          int day) {
  DaySnapshotReport report;
  report.day = day;
  // The daily task starts at local midnight of its day in virtual time.
  int64_t clock = static_cast<int64_t>(day) * 86400ll * 1000000;

  // One Twitter token for the day's (small) cohort.
  net::ApiResponse reg = FetchWithRetry(
      &web->twitter(),
      net::ApiRequest("apps.register", {{"owner", "periodic"}}), nullptr,
      config_.fetch, &clock, &report.fetch);
  if (!reg.ok()) {
    return Status::Unavailable("twitter app registration failed");
  }
  TokenPool tokens({reg.body.Get("access_token").AsString()});

  std::vector<uint64_t> raising;
  net::ApiResponse listing = FetchAllPages(
      &web->angellist(),
      [](int64_t page) {
        return net::ApiRequest("startups.raising",
                               {{"page", std::to_string(page)}});
      },
      nullptr, config_.fetch, &clock, &report.fetch,
      [&](const json::Json& body) {
        for (const json::Json& s : body.Get("startups").array()) {
          raising.push_back(static_cast<uint64_t>(s.Get("id").AsInt()));
        }
      });
  if (!listing.ok()) {
    return Status::Unavailable("raising listing failed on day " +
                               std::to_string(day));
  }
  report.raising_companies = static_cast<int64_t>(raising.size());

  dfs::JsonLinesWriter snapshot(dfs_, DayPrefix(day));
  for (uint64_t id : raising) {
    net::ApiResponse profile = FetchWithRetry(
        &web->angellist(),
        net::ApiRequest("startups.get", {{"id", std::to_string(id)}}), nullptr,
        config_.fetch, &clock, &report.fetch);
    if (!profile.ok()) continue;
    json::Json record = profile.body;
    record.Set("day", day);

    const std::string twitter_url = profile.body.Get("twitter_url").AsString();
    if (!twitter_url.empty()) {
      net::ApiResponse tw = FetchWithRetry(
          &web->twitter(),
          net::ApiRequest(
              "users.show",
              {{"screen_name", std::string(LastUrlSegment(twitter_url))}}),
          &tokens, config_.fetch, &clock, &report.fetch);
      if (tw.ok()) {
        if (!tw.body.Get("followers_count").is_null()) {
          record.Set("twitter_followers",
                     tw.body.Get("followers_count").AsInt());
        }
        record.Set("twitter_tweets", tw.body.Get("statuses_count").AsInt());
        ++report.twitter_profiles;
      }
    }
    CFNET_RETURN_IF_ERROR(snapshot.Write(record));
    ++report.profiles_stored;
  }
  CFNET_RETURN_IF_ERROR(snapshot.Flush());
  return report;
}

Result<std::vector<json::Json>> PeriodicCohortCrawler::ReadDay(int day) const {
  const std::vector<std::string> segments =
      dfs::ListSegments(*dfs_, DayPrefix(day));
  if (segments.empty()) {
    return Status::NotFound("no snapshot for day " + std::to_string(day));
  }
  std::vector<json::Json> records;
  for (const std::string& segment : segments) {
    CFNET_ASSIGN_OR_RETURN(std::vector<json::Json> part,
                           dfs::ReadJsonLines(*dfs_, segment));
    std::move(part.begin(), part.end(), std::back_inserter(records));
  }
  return records;
}

}  // namespace cfnet::crawler
