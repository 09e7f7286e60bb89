// Shared fixtures: a small deterministic collection + scoring + queries,
// built once per test binary.
#ifndef MOA_TESTS_TEST_UTIL_H_
#define MOA_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "engine/database.h"
#include "ir/collection.h"
#include "ir/query_gen.h"
#include "ir/scoring.h"
#include "storage/fragmentation.h"

namespace moa {
namespace testutil {

/// Small Zipf collection (2,000 docs / 3,000 terms) shared across tests.
inline const Collection& SmallCollection() {
  static const Collection* coll = [] {
    CollectionConfig config;
    config.num_docs = 2000;
    config.vocabulary = 3000;
    config.zipf_skew = 1.0;
    config.mean_doc_length = 120;
    config.seed = 20260612;
    auto c = Collection::Generate(config);
    auto* owned = new Collection(std::move(c).ValueOrDie());
    return owned;
  }();
  return *coll;
}

/// The same collection with BM25 impact orders built (required by Fagin /
/// quality-switch operators).
inline const Collection& SmallCollectionWithImpacts() {
  static const Collection* coll = [] {
    auto* owned = new Collection(SmallCollection());
    InvertedFile& file = owned->mutable_inverted_file();
    static std::unique_ptr<ScoringModel> model = MakeBm25(&file);
    file.BuildImpactOrders(
        [&](TermId t, const Posting& p) { return model->Weight(t, p); });
    return owned;
  }();
  return *coll;
}

/// BM25 model bound to SmallCollectionWithImpacts().
inline const ScoringModel& SmallModel() {
  static std::unique_ptr<ScoringModel> model = MakeBm25(
      &const_cast<Collection&>(SmallCollectionWithImpacts())
           .mutable_inverted_file());
  return *model;
}

/// 5%-volume fragmentation of the shared collection.
inline const Fragmentation& SmallFragmentation() {
  static const Fragmentation frag = Fragmentation::Build(
      SmallCollectionWithImpacts().inverted_file(), FragmentationPolicy{});
  return frag;
}

/// Deterministic mixed query workload over the shared collection.
inline const std::vector<Query>& SmallQueries() {
  static const std::vector<Query> queries = [] {
    QueryWorkloadConfig config;
    config.num_queries = 12;
    config.terms_per_query = 4;
    config.distribution = QueryTermDistribution::kMixed;
    config.seed = 99;
    return GenerateQueries(SmallCollectionWithImpacts(), config).ValueOrDie();
  }();
  return queries;
}

/// One request per query, all at `n` with the same options (the batch
/// form of QueryRequest{query, n, options}).
inline std::vector<QueryRequest> Requests(const std::vector<Query>& queries,
                                          size_t n,
                                          const QueryOptions& options = {}) {
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const Query& query : queries) {
    requests.push_back(QueryRequest{query, n, options});
  }
  return requests;
}

/// Options forcing `strategy`. Quality target 0 admits every strategy;
/// a forced request ignores the target anyway.
inline QueryOptions ForcedOptions(PhysicalStrategy strategy) {
  QueryOptions options;
  options.strategy = strategy;
  options.quality_target = 0.0;
  return options;
}

}  // namespace testutil
}  // namespace moa

#endif  // MOA_TESTS_TEST_UTIL_H_
