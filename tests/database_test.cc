#include "engine/database.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace moa {
namespace {

DatabaseConfig TestConfig() {
  DatabaseConfig config;
  config.collection.num_docs = 1500;
  config.collection.vocabulary = 2500;
  config.collection.mean_doc_length = 100;
  config.collection.seed = 31337;
  config.fragmentation.small_volume_fraction = 0.05;
  return config;
}

class MmDatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = MmDatabase::Open(TestConfig());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie().release();
    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 6;
    qconfig.terms_per_query = 3;
    qconfig.distribution = QueryTermDistribution::kMixed;
    queries_ = new std::vector<Query>(
        GenerateQueries(db_->collection(), qconfig).ValueOrDie());
  }

  static MmDatabase* db_;
  static std::vector<Query>* queries_;
};

MmDatabase* MmDatabaseTest::db_ = nullptr;
std::vector<Query>* MmDatabaseTest::queries_ = nullptr;

TEST_F(MmDatabaseTest, OpenBuildsAllComponents) {
  EXPECT_EQ(db_->file().num_docs(), 1500u);
  EXPECT_GT(db_->fragmentation().term_count(FragmentId::kSmall), 0u);
  EXPECT_EQ(db_->model().name(), "bm25");
}

TEST_F(MmDatabaseTest, OpenRejectsBadConfig) {
  DatabaseConfig bad = TestConfig();
  bad.collection.num_docs = 0;
  EXPECT_FALSE(MmDatabase::Open(bad).ok());
}

TEST_F(MmDatabaseTest, SearchSafeMatchesGroundTruthSet) {
  for (const Query& q : *queries_) {
    auto r = db_->Search(QueryRequest{q, 10});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto truth = db_->GroundTruth(q, 10);
    auto scores = db_->GroundTruthScores(q);
    ASSERT_EQ(r.ValueOrDie().top.items.size(), truth.size());
    const double nth = truth.empty() ? 0.0 : truth.back().score;
    for (const auto& sd : r.ValueOrDie().top.items) {
      EXPECT_GE(scores[sd.doc] + 1e-9, nth);
    }
    EXPECT_TRUE(IsSafeStrategy(r.ValueOrDie().strategy));
  }
}

TEST_F(MmDatabaseTest, EveryStrategyExecutes) {
  const Query& q = (*queries_)[0];
  for (PhysicalStrategy s : AllStrategies()) {
    auto r = db_->Execute(s, q, 5);
    ASSERT_TRUE(r.ok()) << StrategyName(s) << ": " << r.status().ToString();
    EXPECT_LE(r.ValueOrDie().items.size(), 5u) << StrategyName(s);
  }
}

TEST_F(MmDatabaseTest, SafeStrategiesAgreeOnTopSet) {
  const Query& q = (*queries_)[1];
  auto truth = db_->GroundTruth(q, 10);
  auto scores = db_->GroundTruthScores(q);
  const double nth = truth.empty() ? 0.0 : truth.back().score;
  for (PhysicalStrategy s : AllStrategies()) {
    if (!IsSafeStrategy(s)) continue;
    auto r = db_->Execute(s, q, 10);
    ASSERT_TRUE(r.ok()) << StrategyName(s);
    ASSERT_EQ(r.ValueOrDie().items.size(), truth.size()) << StrategyName(s);
    for (const auto& sd : r.ValueOrDie().items) {
      EXPECT_GE(scores[sd.doc] + 1e-9, nth)
          << StrategyName(s) << " returned doc " << sd.doc;
    }
  }
}

TEST_F(MmDatabaseTest, ForcedStrategyIsUsed) {
  QueryOptions opts;
  opts.strategy = PhysicalStrategy::kHeap;
  auto r = db_->Search(QueryRequest{(*queries_)[2], 5, opts});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().strategy, PhysicalStrategy::kHeap);
}

TEST_F(MmDatabaseTest, UnsafeSearchAllowsFragmentStrategy) {
  QueryOptions opts;
  opts.quality_target = 0.0;
  auto r = db_->Search(QueryRequest{(*queries_)[3], 5, opts});
  ASSERT_TRUE(r.ok());
  // Whatever was chosen must have been the cheapest alternative.
  EXPECT_GT(r.ValueOrDie().estimate.scalar, 0.0);
}

TEST_F(MmDatabaseTest, ExplainListsEveryCandidateWithCostAndReject) {
  QueryRequest request;
  request.query = (*queries_)[0];
  auto report = db_->ExplainSearch(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ExplainReport& r = report.ValueOrDie();

  // Structured decision: every registered strategy appears exactly once,
  // the chosen one carries reject kNone, and in static mode (full file +
  // fragmentation installed) every candidate is costed.
  EXPECT_FALSE(r.decision.forced);
  EXPECT_EQ(r.decision.chosen.reject, PlanReject::kNone);
  EXPECT_EQ(r.decision.chosen.strategy, r.decision.strategy);
  ASSERT_EQ(r.decision.candidates.size(), AllStrategies().size());
  size_t none_count = 0;
  double prev_scalar = -1.0;
  for (const PlanCandidate& c : r.decision.candidates) {
    if (c.reject == PlanReject::kNone) ++none_count;
    ASSERT_TRUE(c.costed) << StrategyName(c.strategy);
    EXPECT_GT(c.scalar, 0.0) << StrategyName(c.strategy);
    EXPECT_GE(c.scalar, prev_scalar) << "not cheapest-first";
    prev_scalar = c.scalar;
  }
  EXPECT_EQ(none_count, 1u);
  EXPECT_FALSE(r.storage.empty());

  // The rendered text still carries the classic markers.
  const std::string text = r.ToString();
  EXPECT_NE(text.find("chosen:"), std::string::npos);
  EXPECT_NE(text.find("alternatives"), std::string::npos);
  EXPECT_NE(text.find("storage:"), std::string::npos);
}

TEST_F(MmDatabaseTest, PlannerChoiceIsReportedInExplain) {
  // Regression for the removed hard-coded default: an unforced request
  // must be *planned* (not defaulted), and Explain must report the same
  // choice with the losing candidates' predictions visible.
  QueryRequest request;
  request.query = (*queries_)[1];
  auto search = db_->Search(request);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  EXPECT_TRUE(search.ValueOrDie().planned);
  EXPECT_TRUE(IsSafeStrategy(search.ValueOrDie().strategy));
  EXPECT_DOUBLE_EQ(search.ValueOrDie().predicted_quality, 1.0);

  auto report = db_->ExplainSearch(request);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.ValueOrDie().decision.strategy,
            search.ValueOrDie().strategy);
  EXPECT_FALSE(report.ValueOrDie().decision.forced);

  // A forced request reports forced=true and marks an eligible loser.
  request.options.strategy = PhysicalStrategy::kFullSort;
  auto forced = db_->ExplainSearch(request);
  ASSERT_TRUE(forced.ok());
  EXPECT_TRUE(forced.ValueOrDie().decision.forced);
  EXPECT_EQ(forced.ValueOrDie().decision.strategy,
            PhysicalStrategy::kFullSort);
  bool saw_forced_other = false;
  for (const PlanCandidate& c : forced.ValueOrDie().decision.candidates) {
    saw_forced_other |= c.reject == PlanReject::kForcedOther;
  }
  EXPECT_TRUE(saw_forced_other);
}

TEST_F(MmDatabaseTest, ExplainReportsCodecAndSkippedBlocksOverSegment) {
  // Acceptance: over a block-structured segment, a pruned query's explain
  // must name the codec and show a nonzero skipped-block count (block-max
  // pruning at work). Small blocks make skips plentiful.
  const std::string path =
      std::string(::testing::TempDir()) + "/db_explain_blocks.moaseg";
  ASSERT_TRUE(db_->SaveSegment(path, /*block_size=*/8).ok());
  ASSERT_TRUE(db_->AttachSegment(path).ok());
  QueryRequest request;
  request.n = 5;
  request.options.strategy = PhysicalStrategy::kMaxScore;
  int64_t max_skipped = 0;
  for (const Query& q : *queries_) {
    request.query = q;
    auto report = db_->ExplainSearch(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const ExplainReport& r = report.ValueOrDie();
    EXPECT_NE(r.storage.find("bit-packed codec"), std::string::npos)
        << r.storage;
    ASSERT_TRUE(r.has_blocks) << r.ToString();
    EXPECT_GT(r.blocks_decoded, 0);
    max_skipped = std::max(max_skipped, r.blocks_skipped);
    // The text rendering keeps the historical block line.
    EXPECT_NE(r.ToString().find("blocks: decoded "), std::string::npos);
  }
  db_->DetachSegment();
  std::remove(path.c_str());
  EXPECT_GT(max_skipped, 0) << "no query skipped any block";
}

TEST_F(MmDatabaseTest, SearchReportsWallTimeAndStats) {
  auto r = db_->Search(QueryRequest{(*queries_)[4], 10});
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.ValueOrDie().wall_millis, 0.0);
  EXPECT_GT(r.ValueOrDie().top.stats.cost.Scalar(), 0.0);
}

}  // namespace
}  // namespace moa
