// Cross-module property suites: the DESIGN.md invariants, swept over
// strategies, collection shapes and scoring models.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "ir/metrics.h"
#include "optimizer/strategy_planner.h"

namespace moa {
namespace {

struct WorldParam {
  ScoringModelKind scoring;
  double zipf_skew;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const WorldParam& p) {
  return os << p.label;
}

class WorldTest : public ::testing::TestWithParam<WorldParam> {
 protected:
  void SetUp() override {
    DatabaseConfig config;
    config.collection.num_docs = 800;
    config.collection.vocabulary = 1500;
    config.collection.mean_doc_length = 80;
    config.collection.zipf_skew = GetParam().zipf_skew;
    config.collection.seed = 4242;
    config.scoring = GetParam().scoring;
    auto db = MmDatabase::Open(config);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie();

    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 5;
    qconfig.terms_per_query = 3;
    qconfig.distribution = QueryTermDistribution::kMixed;
    qconfig.seed = 11;
    queries_ = GenerateQueries(db_->collection(), qconfig).ValueOrDie();
  }

  std::unique_ptr<MmDatabase> db_;
  std::vector<Query> queries_;
};

TEST_P(WorldTest, SafetyInvariantAcrossAllSafeStrategies) {
  // DESIGN.md invariant: every safe operator returns the exact top-N set.
  for (const Query& q : queries_) {
    auto truth = db_->GroundTruth(q, 10);
    auto scores = db_->GroundTruthScores(q);
    const double nth = truth.empty() ? 0.0 : truth.back().score;
    for (PhysicalStrategy s : AllStrategies()) {
      if (!IsSafeStrategy(s)) continue;
      auto r = db_->Execute(s, q, 10);
      ASSERT_TRUE(r.ok()) << StrategyName(s) << " " << r.status().ToString();
      ASSERT_EQ(r.ValueOrDie().items.size(), truth.size()) << StrategyName(s);
      for (const auto& sd : r.ValueOrDie().items) {
        EXPECT_GE(scores[sd.doc] + 1e-9, nth)
            << StrategyName(s) << " doc " << sd.doc;
      }
    }
  }
}

TEST_P(WorldTest, UnsafeStrategiesNeverExceedExactScoreMass) {
  for (const Query& q : queries_) {
    auto truth = db_->GroundTruth(q, 10);
    auto scores = db_->GroundTruthScores(q);
    for (PhysicalStrategy s :
         {PhysicalStrategy::kSmallFragment,
          PhysicalStrategy::kQualitySwitchSparse}) {
      auto r = db_->Execute(s, q, 10);
      ASSERT_TRUE(r.ok()) << StrategyName(s);
      QualityReport rep = EvaluateQuality(r.ValueOrDie().items, truth, scores);
      EXPECT_LE(rep.score_ratio, 1.0 + 1e-9) << StrategyName(s);
      EXPECT_GE(rep.score_ratio, 0.0) << StrategyName(s);
    }
  }
}

TEST_P(WorldTest, MonotonicityLargerNContainsSmallerN) {
  // Top-5 must be a prefix-set of top-20 for every safe strategy.
  const Query& q = queries_[0];
  for (PhysicalStrategy s :
       {PhysicalStrategy::kHeap, PhysicalStrategy::kFaginTA,
        PhysicalStrategy::kQualitySwitchFull}) {
    auto r5 = db_->Execute(s, q, 5);
    auto r20 = db_->Execute(s, q, 20);
    ASSERT_TRUE(r5.ok() && r20.ok()) << StrategyName(s);
    std::set<DocId> set20;
    for (const auto& sd : r20.ValueOrDie().items) set20.insert(sd.doc);
    // Allow tie-boundary swaps: compare by score, not doc identity.
    const auto& items5 = r5.ValueOrDie().items;
    const auto& items20 = r20.ValueOrDie().items;
    for (size_t i = 0; i < items5.size() && i < items20.size(); ++i) {
      EXPECT_NEAR(items5[i].score, items20[i].score, 1e-9)
          << StrategyName(s) << " rank " << i;
    }
  }
}

TEST_P(WorldTest, FragmentationPartitionInvariant) {
  const InvertedFile& f = db_->file();
  const Fragmentation& frag = db_->fragmentation();
  int64_t small = 0, large = 0;
  for (TermId t = 0; t < f.num_terms(); ++t) {
    (frag.in_small(t) ? small : large) += f.DocFrequency(t);
  }
  EXPECT_EQ(small, frag.postings_volume(FragmentId::kSmall));
  EXPECT_EQ(large, frag.postings_volume(FragmentId::kLarge));
  EXPECT_EQ(small + large, f.num_postings());
}

TEST_P(WorldTest, CostModelRanksFragmentBelowFull) {
  // The planner's raison d'être: on Zipf data the fragment pass must be
  // predicted (and measured) cheaper than the full scan.
  CardinalityEstimator est(&db_->file(), &db_->fragmentation());
  const StrategyPlanner planner(&est, StrategyCostInputs{});
  const auto predicted = [&](PhysicalStrategy s, const Query& q) {
    PlanRequest request;
    request.force = s;
    return planner.PlanForced(q, request).ValueOrDie().chosen.scalar;
  };
  for (const Query& q : queries_) {
    EXPECT_LE(predicted(PhysicalStrategy::kSmallFragment, q),
              predicted(PhysicalStrategy::kFullSort, q));
    auto r_small = db_->Execute(PhysicalStrategy::kSmallFragment, q, 10);
    auto r_full = db_->Execute(PhysicalStrategy::kFullSort, q, 10);
    ASSERT_TRUE(r_small.ok() && r_full.ok());
    EXPECT_LE(r_small.ValueOrDie().stats.cost.sequential_reads,
              r_full.ValueOrDie().stats.cost.sequential_reads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, WorldTest,
    ::testing::Values(
        WorldParam{ScoringModelKind::kBm25, 1.0, "bm25_zipf1"},
        WorldParam{ScoringModelKind::kTfIdf, 1.0, "tfidf_zipf1"},
        WorldParam{ScoringModelKind::kLanguageModel, 1.0, "lm_zipf1"},
        WorldParam{ScoringModelKind::kBm25, 0.6, "bm25_zipf06"},
        WorldParam{ScoringModelKind::kBm25, 1.4, "bm25_zipf14"}),
    [](const ::testing::TestParamInfo<WorldParam>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace moa
