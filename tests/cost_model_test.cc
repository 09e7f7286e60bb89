#include "optimizer/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "optimizer/explain.h"
#include "optimizer/strategy_planner.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::SmallCollectionWithImpacts;
using testutil::SmallFragmentation;
using testutil::SmallQueries;

/// The request that forces `strategy` for (n): PlanForced costs only it.
PlanRequest Forced(PhysicalStrategy strategy, size_t n = 10) {
  PlanRequest request;
  request.n = n;
  request.force = strategy;
  return request;
}

/// A strategy's predicted scalar cost under neutral storage inputs.
double PredictedScalar(const StrategyPlanner& planner,
                       PhysicalStrategy strategy, const Query& query,
                       size_t n) {
  return planner.PlanForced(query, Forced(strategy, n))
      .ValueOrDie()
      .chosen.scalar;
}

/// True when a candidate took part in cost-based choice.
bool Eligible(const PlanCandidate& c) {
  return c.reject == PlanReject::kNone || c.reject == PlanReject::kCostlier;
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : est_(&SmallCollectionWithImpacts().inverted_file(),
             &SmallFragmentation()),
        planner_(&est_, StrategyCostInputs{}) {}

  CardinalityEstimator est_;
  StrategyPlanner planner_;
};

TEST_F(CostModelTest, CardinalityVolumeSplitsAcrossFragments) {
  for (const Query& q : SmallQueries()) {
    EXPECT_EQ(est_.QueryVolume(q),
              est_.QueryVolume(q, FragmentId::kSmall) +
                  est_.QueryVolume(q, FragmentId::kLarge));
  }
}

TEST_F(CostModelTest, ExpectedCandidatesBounded) {
  const double d =
      static_cast<double>(SmallCollectionWithImpacts().inverted_file().num_docs());
  for (const Query& q : SmallQueries()) {
    const double c = est_.ExpectedCandidates(q);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, d);
    // At least as many as the largest single posting list.
    uint32_t max_df = 0;
    for (TermId t : q.terms) {
      max_df = std::max(
          max_df, SmallCollectionWithImpacts().inverted_file().DocFrequency(t));
    }
    EXPECT_GE(c + 1e-6, static_cast<double>(max_df));
  }
}

TEST_F(CostModelTest, ActiveTermsSplitsAcrossFragments) {
  for (const Query& q : SmallQueries()) {
    EXPECT_EQ(est_.ActiveTerms(q),
              est_.ActiveTerms(q, FragmentId::kSmall) +
                  est_.ActiveTerms(q, FragmentId::kLarge));
  }
}

TEST_F(CostModelTest, AllStrategiesProduceFiniteEstimates) {
  for (PhysicalStrategy s : AllStrategies()) {
    const double scalar = PredictedScalar(planner_, s, SmallQueries()[0], 10);
    EXPECT_GE(scalar, 0.0) << StrategyName(s);
    EXPECT_TRUE(std::isfinite(scalar)) << StrategyName(s);
  }
}

TEST_F(CostModelTest, SmallFragmentPredictedCheapest) {
  const double small = PredictedScalar(
      planner_, PhysicalStrategy::kSmallFragment, SmallQueries()[0], 10);
  const double full = PredictedScalar(planner_, PhysicalStrategy::kFullSort,
                                      SmallQueries()[0], 10);
  EXPECT_LT(small, full);
}

TEST_F(CostModelTest, HeapPredictedCheaperThanFullSort) {
  for (const Query& q : SmallQueries()) {
    EXPECT_LE(PredictedScalar(planner_, PhysicalStrategy::kHeap, q, 10),
              PredictedScalar(planner_, PhysicalStrategy::kFullSort, q, 10));
  }
}

TEST_F(CostModelTest, SafetyClassification) {
  EXPECT_TRUE(IsSafeStrategy(PhysicalStrategy::kFullSort));
  EXPECT_TRUE(IsSafeStrategy(PhysicalStrategy::kFaginTA));
  EXPECT_TRUE(IsSafeStrategy(PhysicalStrategy::kQualitySwitchFull));
  EXPECT_FALSE(IsSafeStrategy(PhysicalStrategy::kSmallFragment));
  EXPECT_FALSE(IsSafeStrategy(PhysicalStrategy::kQualitySwitchSparse));
}

TEST_F(CostModelTest, FragmentStrategiesUnavailableWithoutFragmentation) {
  CardinalityEstimator bare(&SmallCollectionWithImpacts().inverted_file());
  const StrategyPlanner planner(&bare, StrategyCostInputs{});
  EXPECT_FALSE(planner
                   .PlanForced(SmallQueries()[0],
                               Forced(PhysicalStrategy::kSmallFragment))
                   .ok());
  EXPECT_FALSE(planner
                   .PlanForced(SmallQueries()[0],
                               Forced(PhysicalStrategy::kQualitySwitchFull))
                   .ok());
  EXPECT_TRUE(
      planner.PlanForced(SmallQueries()[0], Forced(PhysicalStrategy::kFullSort))
          .ok());
}

TEST_F(CostModelTest, StrategyNamesUniqueAndStable) {
  std::set<std::string> names;
  for (PhysicalStrategy s : AllStrategies()) names.insert(StrategyName(s));
  EXPECT_EQ(names.size(), AllStrategies().size());
}

// ------------------------------- planner ----------------------------------

TEST_F(CostModelTest, PlannerPicksCheapestSafeStrategy) {
  PlanRequest request;
  request.quality_target = 1.0;  // safe strategies only
  auto plan = planner_.Plan(SmallQueries()[0], request);
  ASSERT_TRUE(plan.ok());
  std::vector<PlanCandidate> alts;
  for (const PlanCandidate& c : plan.ValueOrDie().candidates) {
    if (Eligible(c)) alts.push_back(c);
  }
  ASSERT_GE(alts.size(), 2u);
  for (size_t i = 1; i < alts.size(); ++i) {
    EXPECT_LE(alts[i - 1].scalar, alts[i].scalar);
  }
  EXPECT_TRUE(IsSafeStrategy(plan.ValueOrDie().strategy));
}

TEST_F(CostModelTest, PlannerUnsafeModeCanPickSmallFragment) {
  PlanRequest request;
  request.quality_target = 0.0;  // unsafe strategies admitted
  // Find a query with at least one large-fragment term so small-fragment
  // actually skips work.
  auto plan = planner_.Plan(SmallQueries()[0], request);
  ASSERT_TRUE(plan.ok());
  bool unsafe_considered = false;
  for (const PlanCandidate& c : plan.ValueOrDie().candidates) {
    if (Eligible(c) && !IsSafeStrategy(c.strategy)) unsafe_considered = true;
  }
  EXPECT_TRUE(unsafe_considered);
}

TEST_F(CostModelTest, PlannerHonorsForce) {
  auto plan = planner_.Plan(SmallQueries()[0],
                            Forced(PhysicalStrategy::kFaginTA));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.ValueOrDie().strategy, PhysicalStrategy::kFaginTA);
}

TEST_F(CostModelTest, PlannerHonorsExclude) {
  PlanRequest request;
  request.exclude = {PhysicalStrategy::kFaginTA, PhysicalStrategy::kFaginNRA,
                     PhysicalStrategy::kFaginFA};
  auto plan = planner_.Plan(SmallQueries()[0], request);
  ASSERT_TRUE(plan.ok());
  for (const PlanCandidate& c : plan.ValueOrDie().candidates) {
    if (!Eligible(c)) continue;
    EXPECT_NE(c.strategy, PhysicalStrategy::kFaginTA);
    EXPECT_NE(c.strategy, PhysicalStrategy::kFaginNRA);
    EXPECT_NE(c.strategy, PhysicalStrategy::kFaginFA);
  }
}

TEST_F(CostModelTest, ExplainMentionsChosenStrategy) {
  auto plan = planner_.Plan(SmallQueries()[0], PlanRequest{});
  ASSERT_TRUE(plan.ok());
  ExplainReport report;
  report.decision = plan.ValueOrDie();
  const std::string text = report.ToString();
  EXPECT_NE(text.find(StrategyName(plan.ValueOrDie().strategy)),
            std::string::npos);
  EXPECT_NE(text.find("alternatives"), std::string::npos);
}

}  // namespace
}  // namespace moa
