#include "core/engagement_analysis.h"

#include <array>
#include <unordered_set>

#include "dataflow/dataset.h"
#include "stats/inference.h"
#include "stats/stats.h"
#include "util/string_util.h"

namespace cfnet::core {
namespace {

/// Feature vector per startup after the joins.
struct Feat {
  uint64_t id = 0;
  bool fb = false;
  bool tw = false;
  bool video = false;
  int64_t likes = 0;
  int64_t tweets = 0;
  int64_t followers = 0;
  bool followers_null = false;
  bool success = false;
};

constexpr int kNumCategories = 11;

/// Category membership tests, index-aligned with the output rows.
std::array<bool, kNumCategories> Categorize(const Feat& f, double likes_med,
                                            double tweets_med,
                                            double followers_med) {
  const bool fb_hi = f.fb && static_cast<double>(f.likes) > likes_med;
  const bool tw_tweets_hi =
      f.tw && static_cast<double>(f.tweets) > tweets_med;
  const bool tw_followers_hi =
      f.tw && !f.followers_null &&
      static_cast<double>(f.followers) > followers_med;
  return {
      !f.fb && !f.tw,               // 0: no social media presence
      f.fb,                         // 1: Facebook
      f.tw,                         // 2: Twitter
      f.fb && f.tw,                 // 3: Facebook and Twitter
      f.video,                      // 4: demo video
      !f.video,                     // 5: no demo video
      fb_hi,                        // 6: Facebook above median likes
      tw_tweets_hi,                 // 7: Twitter above median tweets
      tw_followers_hi,              // 8: Twitter above median followers
      fb_hi && tw_followers_hi,     // 9
      fb_hi && tw_tweets_hi,        // 10
  };
}

struct Counts {
  std::array<int64_t, kNumCategories> n{};
  std::array<int64_t, kNumCategories> succ{};
  int64_t total = 0;
  int64_t funded = 0;
  int64_t tw_nonnull_followers = 0;

  Counts Add(const Counts& o) const {
    Counts out = *this;
    for (int i = 0; i < kNumCategories; ++i) {
      out.n[static_cast<size_t>(i)] += o.n[static_cast<size_t>(i)];
      out.succ[static_cast<size_t>(i)] += o.succ[static_cast<size_t>(i)];
    }
    out.total += o.total;
    out.funded += o.funded;
    out.tw_nonnull_followers += o.tw_nonnull_followers;
    return out;
  }
};

}  // namespace

const EngagementRow* EngagementTable::FindRow(const std::string& label) const {
  for (const auto& row : rows) {
    if (row.label == label) return &row;
  }
  return nullptr;
}

EngagementTable AnalyzeEngagement(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs) {
  using dataflow::Dataset;

  // --- engagement medians (the split points of the table). --------------
  auto fb_ds = Dataset<FacebookRecord>::FromVector(ctx, inputs.facebook);
  auto tw_ds = Dataset<TwitterRecord>::FromVector(ctx, inputs.twitter);
  // Medians are taken over *valid* accounts (nonzero engagement, non-null
  // follower counts) — the paper's split points (652 likes, 343 tweets,
  // 339 followers) are medians "across all valid accounts", which is why
  // only 41-46% of all linked accounts clear them.
  stats::Summary likes_summary = stats::Summarize(
      fb_ds.Filter([](const FacebookRecord& r) { return r.fan_count > 0; })
          .Map([](const FacebookRecord& r) {
            return static_cast<double>(r.fan_count);
          })
          .Collect());
  stats::Summary tweets_summary = stats::Summarize(
      tw_ds.Filter([](const TwitterRecord& r) { return r.statuses_count > 0; })
          .Map([](const TwitterRecord& r) {
            return static_cast<double>(r.statuses_count);
          })
          .Collect());
  stats::Summary followers_summary = stats::Summarize(
      tw_ds.Filter([](const TwitterRecord& r) {
              return !r.followers_count_null && r.followers_count > 0;
            })
          .Map([](const TwitterRecord& r) {
            return static_cast<double>(r.followers_count);
          })
          .Collect());

  const double likes_med = likes_summary.median;
  const double tweets_med = tweets_summary.median;
  const double followers_med = followers_summary.median;

  // --- success: startups with CrunchBase funding evidence. ---------------
  auto funded_ids =
      Dataset<CrunchBaseRecord>::FromVector(ctx, inputs.crunchbase)
          .Filter([](const CrunchBaseRecord& r) { return r.funded(); })
          .Map([](const CrunchBaseRecord& r) { return r.angellist_id; })
          .Distinct()
          .Collect();
  auto funded_set = std::make_shared<std::unordered_set<uint64_t>>(
      funded_ids.begin(), funded_ids.end());

  // --- join startups with their social profiles. -------------------------
  // Each side keeps only the fields the table reads, so the shuffles and
  // join tables carry small values instead of whole records.
  struct TwitterFields {
    int64_t tweets = 0;
    int64_t followers = 0;
    bool followers_null = false;
  };
  auto startup_kv =
      Dataset<StartupRecord>::FromVector(ctx, inputs.startups)
          .Map([](const StartupRecord& s) {
            return std::make_pair(s.id, s.has_video);
          });
  auto fb_kv = fb_ds.Map([](const FacebookRecord& r) {
    return std::make_pair(r.angellist_id, r.fan_count);
  });
  auto tw_kv = tw_ds.Map([](const TwitterRecord& r) {
    return std::make_pair(
        r.angellist_id,
        TwitterFields{r.statuses_count, r.followers_count,
                      r.followers_count_null});
  });

  auto with_fb = dataflow::LeftOuterJoin(startup_kv, fb_kv)
                     .Map([funded_set](const auto& kv) {
                       const auto& [has_video, fb] = kv.second;
                       const auto& [likes, has_fb] = fb;
                       Feat f;
                       f.id = kv.first;
                       f.video = has_video;
                       f.fb = has_fb;
                       f.likes = likes;
                       f.success = funded_set->count(kv.first) > 0;
                       return std::make_pair(kv.first, f);
                     });
  auto feats = dataflow::LeftOuterJoin(with_fb, tw_kv)
                   .Map([](const auto& kv) {
                     Feat f = kv.second.first;
                     const auto& [tw, has_tw] = kv.second.second;
                     if (has_tw) {
                       f.tw = true;
                       f.tweets = tw.tweets;
                       f.followers = tw.followers;
                       f.followers_null = tw.followers_null;
                     }
                     return f;
                   });

  // --- aggregate category counts. -----------------------------------------
  Counts totals =
      feats
          .Map([likes_med, tweets_med, followers_med](const Feat& f) {
            Counts c;
            auto cats = Categorize(f, likes_med, tweets_med, followers_med);
            for (int i = 0; i < kNumCategories; ++i) {
              if (cats[static_cast<size_t>(i)]) {
                c.n[static_cast<size_t>(i)] = 1;
                if (f.success) c.succ[static_cast<size_t>(i)] = 1;
              }
            }
            c.total = 1;
            if (f.success) c.funded = 1;
            if (f.tw && !f.followers_null) c.tw_nonnull_followers = 1;
            return c;
          })
          .Reduce([](const Counts& a, const Counts& b) { return a.Add(b); },
                  Counts{});

  static const char* kLabels[kNumCategories] = {
      "No social media presence",
      "Facebook",
      "Twitter",
      "Facebook and Twitter",
      "Presence of demo video",
      "No demo video",
      "Facebook (likes > median)",
      "Twitter (tweets > median)",
      "Twitter (followers > median)",
      "Facebook (likes > median) and Twitter (followers > median)",
      "Facebook (likes > median) and Twitter (tweets > median)",
  };

  EngagementTable table;
  table.total_companies = totals.total;
  table.funded_companies = totals.funded;
  table.fb_likes_median = likes_med;
  table.tw_tweets_median = tweets_med;
  table.tw_followers_median = followers_med;
  table.twitter_nonnull_followers = totals.tw_nonnull_followers;
  for (int i = 0; i < kNumCategories; ++i) {
    EngagementRow row;
    row.label = kLabels[i];
    row.num_companies = totals.n[static_cast<size_t>(i)];
    row.pct_of_companies =
        totals.total == 0
            ? 0
            : 100.0 * static_cast<double>(row.num_companies) /
                  static_cast<double>(totals.total);
    row.success_pct =
        row.num_companies == 0
            ? 0
            : 100.0 * static_cast<double>(totals.succ[static_cast<size_t>(i)]) /
                  static_cast<double>(row.num_companies);
    // Association vs the complement set.
    int64_t in_succ = totals.succ[static_cast<size_t>(i)];
    int64_t in_fail = row.num_companies - in_succ;
    int64_t out_succ = totals.funded - in_succ;
    int64_t out_fail = (totals.total - row.num_companies) - out_succ;
    stats::ChiSquareResult chi =
        stats::ChiSquare2x2(in_succ, in_fail, out_succ, out_fail);
    row.chi_square_p_value = chi.p_value;
    row.odds_ratio = chi.odds_ratio;
    table.rows.push_back(std::move(row));
  }
  return table;
}

}  // namespace cfnet::core
