#include <set>

#include <gtest/gtest.h>

#include "core/engagement_analysis.h"
#include "core/experiments.h"
#include "core/investor_graph.h"
#include "core/platform.h"
#include "net/fault_plan.h"

namespace cfnet::core {
namespace {

/// End-to-end fixture: one small world crawled once, analyses derived from
/// the snapshots — the full Figure 2 pipeline.
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExploratoryPlatform::Options options;
    options.world.scale = 0.004;
    options.world.seed = 123;
    options.crawl.num_workers = 4;
    platform_ = new ExploratoryPlatform(options);
    ASSERT_TRUE(platform_->CollectData().ok());
    auto inputs = platform_->LoadInputs();
    ASSERT_TRUE(inputs.ok()) << inputs.status();
    inputs_ = new AnalysisInputs(std::move(inputs).value());
    community::CodaConfig coda;
    coda.num_communities = 32;
    coda.max_iterations = 20;
    suite_ = new ExperimentSuite(platform_->context(), *inputs_, coda);
  }
  static void TearDownTestSuite() {
    delete suite_;
    delete inputs_;
    delete platform_;
    suite_ = nullptr;
    inputs_ = nullptr;
    platform_ = nullptr;
  }

  static ExploratoryPlatform& platform() { return *platform_; }
  static const AnalysisInputs& inputs() { return *inputs_; }
  static ExperimentSuite& suite() { return *suite_; }

 private:
  static ExploratoryPlatform* platform_;
  static AnalysisInputs* inputs_;
  static ExperimentSuite* suite_;
};

ExploratoryPlatform* PipelineFixture::platform_ = nullptr;
AnalysisInputs* PipelineFixture::inputs_ = nullptr;
ExperimentSuite* PipelineFixture::suite_ = nullptr;

TEST_F(PipelineFixture, LoadInputsMatchesCrawlReport) {
  const auto& report = platform().crawl_report();
  EXPECT_EQ(static_cast<int64_t>(inputs().startups.size()),
            report.companies_crawled);
  EXPECT_EQ(static_cast<int64_t>(inputs().users.size()), report.users_crawled);
  EXPECT_EQ(static_cast<int64_t>(inputs().crunchbase.size()),
            report.crunchbase_profiles);
  EXPECT_EQ(static_cast<int64_t>(inputs().facebook.size()),
            report.facebook_profiles);
  EXPECT_EQ(static_cast<int64_t>(inputs().twitter.size()),
            report.twitter_profiles);
}

TEST_F(PipelineFixture, LoadInputsRequiresCollect) {
  ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  ExploratoryPlatform fresh(options);
  auto inputs = fresh.LoadInputs();
  EXPECT_FALSE(inputs.ok());
  EXPECT_EQ(inputs.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, MergedInvestorGraphEqualsGroundTruth) {
  // The AngelList+CrunchBase merge must recover exactly the ground-truth
  // investment edge set (by construction: hidden AL edges are in rounds).
  const graph::BipartiteGraph& g = suite().investor_graph();
  const auto& world = platform().world();
  size_t truth_edges = 0;
  for (const auto& u : world.users()) {
    truth_edges += u.investments.size();
    if (u.investments.empty()) continue;
    uint32_t l = g.LeftIndexOf(u.id);
    ASSERT_NE(l, graph::BipartiteGraph::kInvalidIndex) << "investor " << u.id;
    ASSERT_EQ(g.OutDegree(l), u.investments.size());
    for (synth::CompanyId c : u.investments) {
      uint32_t r = g.RightIndexOf(c);
      ASSERT_NE(r, graph::BipartiteGraph::kInvalidIndex);
      auto nbrs = g.OutNeighbors(l);
      EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), r));
    }
  }
  EXPECT_EQ(g.num_edges(), truth_edges);
}

TEST_F(PipelineFixture, EdgeProvenanceShowsBothSourcesNeeded) {
  EdgeProvenance p = ComputeEdgeProvenance(platform().context(), inputs());
  EXPECT_LT(p.angellist_edges, p.merged_unique_edges);  // AL alone incomplete
  EXPECT_LT(p.crunchbase_edges, p.merged_unique_edges);
  EXPECT_EQ(p.merged_unique_edges, suite().investor_graph().num_edges());
}

TEST_F(PipelineFixture, EngagementTableInternallyConsistent) {
  EngagementTable table = suite().RunEngagementTable();
  EXPECT_EQ(table.total_companies,
            static_cast<int64_t>(inputs().startups.size()));

  const auto* none = table.FindRow("No social media presence");
  const auto* fb = table.FindRow("Facebook");
  const auto* tw = table.FindRow("Twitter");
  const auto* both = table.FindRow("Facebook and Twitter");
  const auto* video = table.FindRow("Presence of demo video");
  const auto* no_video = table.FindRow("No demo video");
  ASSERT_NE(none, nullptr);
  ASSERT_NE(fb, nullptr);
  ASSERT_NE(tw, nullptr);
  ASSERT_NE(both, nullptr);
  ASSERT_NE(video, nullptr);
  ASSERT_NE(no_video, nullptr);

  // Inclusion-exclusion over the presence cells.
  EXPECT_EQ(none->num_companies + fb->num_companies + tw->num_companies -
                both->num_companies,
            table.total_companies);
  EXPECT_EQ(video->num_companies + no_video->num_companies,
            table.total_companies);

  // Social presence dominates the success signal.
  EXPECT_GT(fb->success_pct, 5 * none->success_pct);
  EXPECT_GT(tw->success_pct, 5 * none->success_pct);
  EXPECT_GT(video->success_pct, no_video->success_pct);

  // Engagement categories are subsets of the presence categories.
  const auto* fb_hi = table.FindRow("Facebook (likes > median)");
  ASSERT_NE(fb_hi, nullptr);
  EXPECT_LT(fb_hi->num_companies, fb->num_companies);
  EXPECT_GT(fb_hi->success_pct, fb->success_pct);

  // Above-median shares land in the paper's 40-50% band of presence.
  double share = static_cast<double>(fb_hi->num_companies) /
                 static_cast<double>(fb->num_companies);
  EXPECT_GT(share, 0.3);
  EXPECT_LT(share, 0.55);

  EXPECT_GT(table.fb_likes_median, 0);
  EXPECT_GT(table.tw_tweets_median, 0);
  EXPECT_GT(table.tw_followers_median, 0);
}

TEST_F(PipelineFixture, EngagementSuccessMatchesCrunchBase) {
  EngagementTable table = suite().RunEngagementTable();
  std::set<uint64_t> funded;
  for (const auto& r : inputs().crunchbase) {
    if (r.funded()) funded.insert(r.angellist_id);
  }
  EXPECT_EQ(table.funded_companies, static_cast<int64_t>(funded.size()));
}

TEST_F(PipelineFixture, DatasetStatsMatchTruthRoles) {
  DatasetStatsResult stats = suite().RunDatasetStats();
  const auto& world = platform().world();
  synth::WorldStats truth = world.ComputeStats();
  // The crawl reaches ~everything, so role counts track the truth closely.
  EXPECT_NEAR(static_cast<double>(stats.investors),
              static_cast<double>(truth.num_investors),
              truth.num_investors * 0.05 + 2.0);
  EXPECT_NEAR(static_cast<double>(stats.founders),
              static_cast<double>(truth.num_founders),
              truth.num_founders * 0.05 + 2.0);
  EXPECT_GT(stats.investor_pct, 2.0);
  EXPECT_LT(stats.investor_pct, 8.0);
}

TEST_F(PipelineFixture, Fig3DegreesAndConcentration) {
  Fig3Result fig3 = suite().RunFig3();
  EXPECT_GT(fig3.num_investors, 50u);
  EXPECT_GT(fig3.num_edges, fig3.num_investors);  // mean degree > 1
  EXPECT_EQ(fig3.degrees.median, 1.0);
  EXPECT_GT(fig3.degrees.mean, 2.0);
  EXPECT_LT(fig3.degrees.mean, 5.0);

  ASSERT_EQ(fig3.degrees.concentration.size(), 3u);
  // Concentration rows are monotone: fewer nodes hold fewer (but still
  // disproportionate) edges.
  const auto& c3 = fig3.degrees.concentration[0];
  const auto& c4 = fig3.degrees.concentration[1];
  const auto& c5 = fig3.degrees.concentration[2];
  EXPECT_GT(c3.node_fraction, c4.node_fraction);
  EXPECT_GT(c4.node_fraction, c5.node_fraction);
  EXPECT_GT(c3.edge_fraction, c4.edge_fraction);
  EXPECT_GT(c4.edge_fraction, c5.edge_fraction);
  // Heavy concentration: the >=3 cohort holds far more edge share than
  // node share (paper: 30% of investors hold 75% of edges).
  EXPECT_GT(c3.edge_fraction, c3.node_fraction * 1.8);

  // CDF is monotone and ends at 1.
  for (size_t i = 1; i < fig3.investment_cdf.size(); ++i) {
    EXPECT_GT(fig3.investment_cdf[i].x, fig3.investment_cdf[i - 1].x);
    EXPECT_GE(fig3.investment_cdf[i].p, fig3.investment_cdf[i - 1].p);
  }
  EXPECT_DOUBLE_EQ(fig3.investment_cdf.back().p, 1.0);

  EXPECT_GT(fig3.mean_investor_follows, 50);  // calibrated to ~247
}

TEST_F(PipelineFixture, Fig4StrongCommunitiesAndGlobalCurve) {
  Fig4Result fig4 = suite().RunFig4(3, 20000);
  EXPECT_GT(fig4.num_communities, 0u);
  ASSERT_FALSE(fig4.strongest.empty());
  // Strong communities sorted by descending mean shared size.
  for (size_t i = 1; i < fig4.strongest.size(); ++i) {
    EXPECT_GE(fig4.strongest[i - 1].mean_shared, fig4.strongest[i].mean_shared);
  }
  // Strong communities herd far above the global average.
  double global_mean = 0;
  // Approximate global mean from the curve is awkward; use metric directly:
  EXPECT_GT(fig4.strongest[0].mean_shared, 0.5);
  EXPECT_GT(fig4.strongest[0].max_shared, fig4.strongest[0].mean_shared);
  EXPECT_EQ(fig4.global_pairs, 20000u);
  EXPECT_NEAR(fig4.dkw_epsilon, 0.0115, 0.002);  // DKW at n=20k, 99%
  EXPECT_FALSE(fig4.global_curve.empty());
  EXPECT_DOUBLE_EQ(fig4.global_curve.back().p, 1.0);
  (void)global_mean;
}

TEST_F(PipelineFixture, Fig5CommunityPercentsBeatRandom) {
  Fig5Result fig5 = suite().RunFig5();
  ASSERT_FALSE(fig5.community_percents.empty());
  for (double p : fig5.community_percents) {
    EXPECT_GE(p, 0);
    EXPECT_LE(p, 100);
  }
  EXPECT_GT(fig5.mean_percent, 0);
  EXPECT_FALSE(fig5.kde.empty());
}

TEST_F(PipelineFixture, Fig7ProducesRenderableViz) {
  Fig7Result fig7 = suite().RunFig7(/*min_community_size=*/5);
  EXPECT_GT(fig7.strong.num_investors, 0u);
  EXPECT_GE(fig7.strong.mean_shared, fig7.weak.mean_shared);
  EXPECT_NE(fig7.strong.svg.find("<svg"), std::string::npos);
  EXPECT_NE(fig7.strong.dot.find("graph community_"), std::string::npos);
  EXPECT_NE(fig7.weak.svg.find("</svg>"), std::string::npos);
}

// A dead-letter replay commits segments after CollectData(); the next
// LoadInputs() must read them rather than return what an earlier call read.
TEST(PlatformLoadTest, LoadInputsSeesRecordsOfADeadLetterReplay) {
  ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 11;
  options.crawl.num_workers = 2;
  ExploratoryPlatform platform(options);
  net::FaultPlan outage;  // CrunchBase is down for the whole crawl
  outage.error_bursts = {{0, 365ll * 24 * 3600 * 1000000ll, 1.0}};
  platform.web().crunchbase().set_fault_plan(outage);
  ASSERT_TRUE(platform.CollectData().ok());

  auto before = platform.LoadInputs();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_TRUE(before->crunchbase.empty());

  platform.web().crunchbase().set_fault_plan({});
  ASSERT_TRUE(platform.crawler().ReplayDeadLetters().ok());
  const int64_t profiles = platform.crawl_report().crunchbase_profiles;
  ASSERT_GT(profiles, 0);
  auto after = platform.LoadInputs();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(static_cast<int64_t>(after->crunchbase.size()), profiles);
  EXPECT_EQ(after->users.size(), before->users.size());
}

}  // namespace
}  // namespace cfnet::core
