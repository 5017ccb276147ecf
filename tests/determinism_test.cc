// Determinism guarantees: the whole pipeline is reproducible bit-for-bit
// for a fixed seed, regardless of worker/thread counts where the design
// promises it.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "community/coda.h"
#include "community/louvain.h"
#include "community/sbm.h"
#include "core/engagement_analysis.h"
#include "core/experiments.h"
#include "core/investor_graph.h"
#include "core/platform.h"
#include "core/prediction.h"
#include "dataflow/context.h"
#include "fnv_digest.h"
#include "util/rng.h"

namespace cfnet {
namespace {

core::ExploratoryPlatform::Options SmallOptions(int workers) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 2024;
  options.crawl.num_workers = workers;
  return options;
}

TEST(DeterminismTest, TwoIdenticalPlatformsAgreeExactly) {
  core::ExploratoryPlatform a(SmallOptions(4));
  core::ExploratoryPlatform b(SmallOptions(4));
  ASSERT_TRUE(a.CollectData().ok());
  ASSERT_TRUE(b.CollectData().ok());

  EXPECT_EQ(a.crawl_report().companies_crawled,
            b.crawl_report().companies_crawled);
  EXPECT_EQ(a.crawl_report().users_crawled, b.crawl_report().users_crawled);
  EXPECT_EQ(a.crawl_report().crunchbase_profiles,
            b.crawl_report().crunchbase_profiles);

  auto inputs_a = a.LoadInputs();
  auto inputs_b = b.LoadInputs();
  ASSERT_TRUE(inputs_a.ok());
  ASSERT_TRUE(inputs_b.ok());

  core::EngagementTable ta = core::AnalyzeEngagement(a.context(), *inputs_a);
  core::EngagementTable tb = core::AnalyzeEngagement(b.context(), *inputs_b);
  ASSERT_EQ(ta.rows.size(), tb.rows.size());
  for (size_t i = 0; i < ta.rows.size(); ++i) {
    EXPECT_EQ(ta.rows[i].num_companies, tb.rows[i].num_companies);
    EXPECT_DOUBLE_EQ(ta.rows[i].success_pct, tb.rows[i].success_pct);
  }
  EXPECT_DOUBLE_EQ(ta.fb_likes_median, tb.fb_likes_median);
}

TEST(DeterminismTest, WorkerCountDoesNotChangeCrawlCoverage) {
  core::ExploratoryPlatform a(SmallOptions(1));
  core::ExploratoryPlatform b(SmallOptions(8));
  ASSERT_TRUE(a.CollectData().ok());
  ASSERT_TRUE(b.CollectData().ok());
  // Coverage counts are worker-count independent (fetch *order* differs but
  // the BFS closure and augmentation results are the same sets).
  EXPECT_EQ(a.crawl_report().companies_crawled,
            b.crawl_report().companies_crawled);
  EXPECT_EQ(a.crawl_report().users_crawled, b.crawl_report().users_crawled);
  EXPECT_EQ(a.crawl_report().crunchbase_profiles,
            b.crawl_report().crunchbase_profiles);
  EXPECT_EQ(a.crawl_report().facebook_profiles,
            b.crawl_report().facebook_profiles);
  EXPECT_EQ(a.crawl_report().twitter_profiles,
            b.crawl_report().twitter_profiles);

  // And the merged investor graph is identical.
  auto inputs_a = a.LoadInputs();
  auto inputs_b = b.LoadInputs();
  ASSERT_TRUE(inputs_a.ok());
  ASSERT_TRUE(inputs_b.ok());
  graph::BipartiteGraph ga = core::BuildInvestorGraph(a.context(), *inputs_a);
  graph::BipartiteGraph gb = core::BuildInvestorGraph(b.context(), *inputs_b);
  EXPECT_EQ(ga.num_left(), gb.num_left());
  EXPECT_EQ(ga.num_edges(), gb.num_edges());
}

graph::BipartiteGraph SmallPlanted(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 12; ++i) {
      for (int c = 0; c < 9; ++c) {
        if (rng.Bernoulli(0.6)) {
          edges.emplace_back(static_cast<uint64_t>(b * 12 + i + 1),
                             500 + static_cast<uint64_t>(b * 9 + c));
        }
      }
    }
  }
  return graph::BipartiteGraph::FromEdges(edges);
}

TEST(DeterminismTest, CodaIndependentOfThreadCount) {
  // F rows update against a snapshot of H (and vice versa), so the fit is
  // exactly reproducible regardless of the worker-pool width.
  graph::BipartiteGraph g = SmallPlanted(6);
  community::CodaConfig one;
  one.num_communities = 6;
  one.max_iterations = 12;
  one.num_threads = 1;
  community::CodaConfig four = one;
  four.num_threads = 4;
  community::CodaResult ra = community::Coda(one).Fit(g);
  community::CodaResult rb = community::Coda(four).Fit(g);
  EXPECT_EQ(ra.final_log_likelihood, rb.final_log_likelihood);
  ASSERT_EQ(ra.log_likelihood_trace.size(), rb.log_likelihood_trace.size());
  for (size_t i = 0; i < ra.log_likelihood_trace.size(); ++i) {
    EXPECT_EQ(ra.log_likelihood_trace[i], rb.log_likelihood_trace[i]);
  }
  EXPECT_EQ(ra.f, rb.f);
  EXPECT_EQ(ra.h, rb.h);
}

TEST(DeterminismTest, DetectorsDeterministicPerSeed) {
  graph::BipartiteGraph g = SmallPlanted(7);
  graph::WeightedGraph projection = graph::WeightedGraph::ProjectLeft(g);

  community::LouvainResult la = community::RunLouvain(projection);
  community::LouvainResult lb = community::RunLouvain(projection);
  EXPECT_EQ(la.labels, lb.labels);
  EXPECT_DOUBLE_EQ(la.modularity, lb.modularity);

  community::SbmResult sa = community::RunSbm(g);
  community::SbmResult sb = community::RunSbm(g);
  EXPECT_EQ(sa.investor_labels, sb.investor_labels);
  EXPECT_DOUBLE_EQ(sa.log_posterior, sb.log_posterior);
}

// --- pinned MiniSpark analyses ---------------------------------------------
// Digests of every value the MiniSpark pipelines produce: the Figure 6 join,
// the §5.1 investor-graph merge and its provenance counts, the dataset
// stats reduce and the success-prediction features. They are pinned (not
// compared across two runs of this binary), so an engine refactor that
// moves any bit of any analysis fails here. One crawl worker keeps the
// crawled inputs independent of the schedule; the analyses run on contexts
// of 1, 3 and 4 threads, one of them splitting partitions into small
// morsels, and must agree bit for bit.

class Digest : public FnvDigest {
 public:
  void Int(int64_t x) { Word(static_cast<uint64_t>(x)); }
  void Text(const std::string& s) {
    Word(s.size());
    for (char c : s) Word(static_cast<unsigned char>(c));
  }
};

uint64_t EngagementDigest(const core::EngagementTable& t) {
  Digest d;
  d.Int(t.total_companies);
  d.Int(t.funded_companies);
  d.Bits(t.fb_likes_median);
  d.Bits(t.tw_tweets_median);
  d.Bits(t.tw_followers_median);
  d.Int(t.twitter_nonnull_followers);
  d.Word(t.rows.size());
  for (const core::EngagementRow& row : t.rows) {
    d.Text(row.label);
    d.Int(row.num_companies);
    d.Bits(row.pct_of_companies);
    d.Bits(row.success_pct);
    d.Bits(row.chi_square_p_value);
    d.Bits(row.odds_ratio);
  }
  return d.value();
}

uint64_t InvestorGraphDigest(const graph::BipartiteGraph& g) {
  Digest d;
  d.Word(g.num_left());
  d.Word(g.num_right());
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    d.Word(g.LeftId(l));
    auto out = g.OutNeighbors(l);
    d.Word(out.size());
    for (uint32_t r : out) d.Word(g.RightId(r));
  }
  return d.value();
}

uint64_t ProvenanceDigest(const core::EdgeProvenance& p) {
  Digest d;
  d.Word(p.angellist_edges);
  d.Word(p.crunchbase_edges);
  d.Word(p.merged_unique_edges);
  return d.value();
}

uint64_t DatasetStatsDigest(const core::DatasetStatsResult& r) {
  Digest d;
  for (int64_t x : {r.companies, r.users, r.crunchbase_profiles,
                    r.facebook_profiles, r.twitter_profiles, r.investors,
                    r.founders, r.employees}) {
    d.Int(x);
  }
  d.Bits(r.investor_pct);
  d.Bits(r.founder_pct);
  d.Bits(r.employee_pct);
  return d.value();
}

uint64_t FeaturesDigest(const std::vector<core::LabeledExample>& examples) {
  Digest d;
  d.Word(examples.size());
  for (const core::LabeledExample& e : examples) {
    d.Word(e.company_id);
    d.Word(e.success ? 1 : 0);
    d.Word(e.features.size());
    for (double f : e.features) d.Bits(f);
  }
  return d.value();
}

TEST(DeterminismTest, MiniSparkAnalysesMatchPinnedDigests) {
  core::ExploratoryPlatform platform(SmallOptions(1));
  ASSERT_TRUE(platform.CollectData().ok());
  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok());
  ASSERT_FALSE(inputs->startups.empty());

  struct Shape {
    size_t threads;
    size_t morsel;  // 0 = the context default
  };
  for (Shape shape : {Shape{1, 0}, Shape{3, 64}, Shape{4, 0}}) {
    SCOPED_TRACE(::testing::Message() << shape.threads << " threads, morsel "
                                      << shape.morsel);
    auto ctx = std::make_shared<dataflow::ExecutionContext>(shape.threads);
    ctx->set_morsel_size(shape.morsel);
    graph::BipartiteGraph g = core::BuildInvestorGraph(ctx, *inputs);
    ASSERT_GT(g.num_edges(), 0u);
    EXPECT_EQ(EngagementDigest(core::AnalyzeEngagement(ctx, *inputs)),
              0xba9806dae4cac8b7ull);
    EXPECT_EQ(InvestorGraphDigest(g), 0x7c5b83cc11c9d64full);
    EXPECT_EQ(ProvenanceDigest(core::ComputeEdgeProvenance(ctx, *inputs)),
              0xba73c8530db23b09ull);
    EXPECT_EQ(
        DatasetStatsDigest(core::ExperimentSuite(ctx, *inputs).RunDatasetStats()),
        0x00742bb803fc72b8ull);
    EXPECT_EQ(FeaturesDigest(core::BuildSuccessFeatures(ctx, *inputs, g)),
              0x2b69a62dfc6e6cdaull);
  }
}

// --- pinned Figures 3-5 ----------------------------------------------------
// Every field of the Figure 3 degree CDF and §5.1 statistics, the Figure 4
// community and global shared-size CDFs with their DKW bound, and the
// Figure 5 per-community percentages and KDE grid, folded as bits.

void CurveBits(Digest& d, const std::vector<stats::Ecdf::Point>& curve) {
  d.Word(curve.size());
  for (const stats::Ecdf::Point& p : curve) {
    d.Bits(p.x);
    d.Bits(p.p);
  }
}

uint64_t Fig3Digest(const core::Fig3Result& r) {
  Digest d;
  CurveBits(d, r.investment_cdf);
  d.Bits(r.degrees.mean);
  d.Bits(r.degrees.median);
  d.Word(r.degrees.max);
  d.Word(r.degrees.concentration.size());
  for (const auto& c : r.degrees.concentration) {
    d.Word(c.k);
    d.Bits(c.node_fraction);
    d.Bits(c.edge_fraction);
  }
  d.Word(r.num_investors);
  d.Word(r.num_companies);
  d.Word(r.num_edges);
  d.Bits(r.avg_investors_per_company);
  d.Bits(r.mean_investor_follows);
  d.Word(ProvenanceDigest(r.provenance));
  return d.value();
}

uint64_t Fig4Digest(const core::Fig4Result& r) {
  Digest d;
  d.Word(r.strongest.size());
  for (const auto& c : r.strongest) {
    d.Word(c.community_index);
    d.Word(c.size);
    d.Bits(c.mean_shared);
    d.Bits(c.max_shared);
    CurveBits(d, c.curve);
  }
  CurveBits(d, r.global_curve);
  d.Word(r.global_pairs);
  d.Bits(r.dkw_epsilon);
  d.Word(r.num_communities);
  d.Bits(r.avg_community_size);
  d.Int(r.coda_iterations);
  d.Bits(r.coda_log_likelihood);
  return d.value();
}

uint64_t Fig5Digest(const core::Fig5Result& r) {
  Digest d;
  d.Word(r.community_percents.size());
  for (double p : r.community_percents) d.Bits(p);
  d.Bits(r.mean_percent);
  d.Bits(r.random_mean_percent);
  d.Word(r.kde.size());
  for (const auto& [x, density] : r.kde) {
    d.Bits(x);
    d.Bits(density);
  }
  return d.value();
}

TEST(DeterminismTest, FiguresThreeToFiveMatchPinnedDigests) {
  core::ExploratoryPlatform platform(SmallOptions(1));
  ASSERT_TRUE(platform.CollectData().ok());
  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok());
  auto ctx = std::make_shared<dataflow::ExecutionContext>(2);
  core::ExperimentSuite suite(ctx, *inputs);
  core::Fig3Result fig3 = suite.RunFig3();
  ASSERT_FALSE(fig3.investment_cdf.empty());
  core::Fig4Result fig4 = suite.RunFig4();
  ASSERT_FALSE(fig4.strongest.empty());
  ASSERT_FALSE(fig4.global_curve.empty());
  core::Fig5Result fig5 = suite.RunFig5();
  ASSERT_FALSE(fig5.community_percents.empty());
  ASSERT_FALSE(fig5.kde.empty());
  EXPECT_EQ(Fig3Digest(fig3), 0xef50a1e5c913b3f2ull);
  EXPECT_EQ(Fig4Digest(fig4), 0x21671861cc5faca4ull);
  EXPECT_EQ(Fig5Digest(fig5), 0xbb59f8a2a30cdd68ull);
}

}  // namespace
}  // namespace cfnet
