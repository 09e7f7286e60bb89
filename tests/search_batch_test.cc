// SearchBatch acceptance: concurrent fan-out must be invisible in the
// results — parallelism N returns bit-identical rankings to sequential
// Search for every registered strategy — and the aggregate stats must be
// coherent. The concurrency stress tests double as the TSan targets for
// the shared SparseIndexCache and the ThreadPool.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine/database.h"
#include "ir/query_gen.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::ForcedOptions;
using testutil::Requests;

DatabaseConfig TestConfig() {
  DatabaseConfig config;
  config.collection.num_docs = 1500;
  config.collection.vocabulary = 2500;
  config.collection.mean_doc_length = 100;
  config.collection.seed = 74755;
  config.fragmentation.small_volume_fraction = 0.05;
  return config;
}

class SearchBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = MmDatabase::Open(TestConfig());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie().release();
    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 24;
    qconfig.terms_per_query = 4;
    qconfig.distribution = QueryTermDistribution::kMixed;
    qconfig.seed = 4242;
    queries_ = new std::vector<Query>(
        GenerateQueries(db_->collection(), qconfig).ValueOrDie());
  }

  static MmDatabase* db_;
  static std::vector<Query>* queries_;
};

MmDatabase* SearchBatchTest::db_ = nullptr;
std::vector<Query>* SearchBatchTest::queries_ = nullptr;

void ExpectIdenticalTopN(const TopNResult& a, const TopNResult& b,
                         const char* label) {
  ASSERT_EQ(a.items.size(), b.items.size()) << label;
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].doc, b.items[i].doc) << label << " rank " << i;
    // Bit-identical, not approximately equal: both paths must run the
    // exact same float operations in the same order.
    EXPECT_EQ(a.items[i].score, b.items[i].score) << label << " rank " << i;
  }
}

TEST_F(SearchBatchTest, ParallelMatchesSequentialForEveryStrategy) {
  for (PhysicalStrategy s : AllStrategies()) {
    const QueryOptions opts = ForcedOptions(s);

    std::vector<SearchResult> sequential;
    for (const Query& q : *queries_) {
      auto r = db_->Search(QueryRequest{q, 10, opts});
      ASSERT_TRUE(r.ok()) << StrategyName(s) << ": " << r.status().ToString();
      sequential.push_back(std::move(r).ValueOrDie());
    }

    auto batch = db_->SearchBatch(Requests(*queries_, 10, opts), 4);
    ASSERT_TRUE(batch.ok()) << StrategyName(s) << ": "
                            << batch.status().ToString();
    const BatchSearchResult& b = batch.ValueOrDie();
    ASSERT_EQ(b.results.size(), queries_->size()) << StrategyName(s);
    for (size_t i = 0; i < queries_->size(); ++i) {
      EXPECT_EQ(b.results[i].strategy, s);
      ExpectIdenticalTopN(sequential[i].top, b.results[i].top,
                          StrategyName(s));
    }
  }
}

TEST_F(SearchBatchTest, PlannerChosenBatchMatchesSequential) {
  auto batch = db_->SearchBatch(Requests(*queries_, 10), 4);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < queries_->size(); ++i) {
    auto seq = db_->Search(QueryRequest{(*queries_)[i], 10});
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(batch.ValueOrDie().results[i].strategy,
              seq.ValueOrDie().strategy);
    ExpectIdenticalTopN(seq.ValueOrDie().top,
                        batch.ValueOrDie().results[i].top, "planner");
  }
}

TEST_F(SearchBatchTest, StatsAreCoherent) {
  auto batch = db_->SearchBatch(Requests(*queries_, 10), 2);
  ASSERT_TRUE(batch.ok());
  const BatchStats& stats = batch.ValueOrDie().stats;
  EXPECT_EQ(stats.num_queries, queries_->size());
  EXPECT_EQ(stats.parallelism, 2u);
  EXPECT_GT(stats.wall_millis, 0.0);
  EXPECT_GT(stats.qps, 0.0);
  // Percentiles come from one histogram: they must be ordered.
  EXPECT_LE(stats.p50_millis, stats.p95_millis);
  EXPECT_LE(stats.p95_millis, stats.p99_millis);
  EXPECT_GT(stats.total_cost.Scalar(), 0.0);
}

TEST_F(SearchBatchTest, ParallelismIsClampedToBatchSize) {
  std::vector<Query> two(queries_->begin(), queries_->begin() + 2);
  auto batch = db_->SearchBatch(Requests(two, 5), 16);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.ValueOrDie().stats.parallelism, 2u);
}

TEST_F(SearchBatchTest, EmptyBatchIsOkAndEmpty) {
  auto batch = db_->SearchBatch(std::vector<QueryRequest>{}, 4);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch.ValueOrDie().results.empty());
  EXPECT_EQ(batch.ValueOrDie().stats.num_queries, 0u);
}

TEST_F(SearchBatchTest, ConcurrentSparseProbeSharesOneCache) {
  // The TSan money test: many workers force the sparse-probe strategy at
  // once, racing to build the shared per-term sparse indexes. A fresh
  // database isolates the cache-fill from earlier tests.
  auto db = MmDatabase::Open(TestConfig());
  ASSERT_TRUE(db.ok());
  const std::vector<QueryRequest> requests = Requests(
      *queries_, 10, ForcedOptions(PhysicalStrategy::kQualitySwitchSparse));

  auto batch = db.ValueOrDie()->SearchBatch(requests, 8);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  // Re-running over the now-warm cache must not change anything.
  auto warm = db.ValueOrDie()->SearchBatch(requests, 8);
  ASSERT_TRUE(warm.ok());
  for (size_t i = 0; i < queries_->size(); ++i) {
    ExpectIdenticalTopN(batch.ValueOrDie().results[i].top,
                        warm.ValueOrDie().results[i].top, "warm cache");
  }
}

TEST_F(SearchBatchTest, ConcurrentMixedStrategiesOverOneDatabase) {
  // Two batches with different forced strategies genuinely overlapping
  // over the same database instance (each from its own thread, each with
  // its own pool) — exercises the full read-only sharing contract.
  const std::vector<QueryRequest> sparse = Requests(
      *queries_, 10, ForcedOptions(PhysicalStrategy::kQualitySwitchSparse));
  QueryOptions maxscore_opts;
  maxscore_opts.strategy = PhysicalStrategy::kMaxScore;
  const std::vector<QueryRequest> maxscore =
      Requests(*queries_, 10, maxscore_opts);

  Status status_a = Status::OK(), status_b = Status::OK();
  std::thread ta([&] {
    auto r = db_->SearchBatch(sparse, 4);
    status_a = r.status();
  });
  std::thread tb([&] {
    auto r = db_->SearchBatch(maxscore, 4);
    status_b = r.status();
  });
  ta.join();
  tb.join();
  EXPECT_TRUE(status_a.ok()) << status_a.ToString();
  EXPECT_TRUE(status_b.ok()) << status_b.ToString();
}

}  // namespace
}  // namespace moa
