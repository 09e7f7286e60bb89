// ShardedCatalog + ShardCoordinator acceptance suite.
//
// Covers the sharded storage contract from the bottom up: the global/local
// id interleaving, least-loaded routing (identity ids from a pristine
// catalog), consistent multi-shard snapshots aggregating global
// statistics, the snapshot-owned per-shard impact cache (bit-exact sorted
// access and bounds under global statistics, snapshot isolation,
// concurrent first use), the
// coordinator's bound-ordered visiting with strict-below-n-th shard
// skipping (exact skipped-work accounting in CostCounters), durability
// through per-shard MANIFESTs, and — at the engine level — that an
// MmDatabase serving N shards answers bit-identically to an unsharded
// database given the same lifecycle (safe strategies; fagin_nra is
// set-level because its partial lower bounds are partition-dependent).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "ir/exact_eval.h"
#include "storage/catalog/sharded_catalog.h"
#include "test_util.h"

namespace moa {
namespace {

constexpr uint32_t kVocab = 300;
constexpr size_t kTopN = 10;

DocTerms SynthDoc(Rng& rng) {
  std::map<TermId, uint32_t> terms;
  const size_t want = 6 + rng.Uniform(8);
  while (terms.size() < want) {
    terms.emplace(static_cast<TermId>(rng.Uniform(kVocab)),
                  1 + static_cast<uint32_t>(rng.Uniform(4)));
  }
  return DocTerms(terms.begin(), terms.end());
}

/// Every (doc, tf, weight) an impact cursor emits, in order.
using ImpactSequence = std::vector<std::tuple<DocId, uint32_t, double>>;

ImpactSequence Drain(ImpactCursor& cursor) {
  ImpactSequence out;
  for (; !cursor.at_end(); cursor.next()) {
    out.emplace_back(cursor.doc(), cursor.tf(), cursor.weight());
  }
  return out;
}

/// Shard s's cached sorted access over t.
ImpactSequence Cached(const ShardedSnapshot& snap, size_t s, TermId t) {
  return Drain(
      *snap.shard_source(s).OpenImpactCursor(t, snap.shard_model(s)));
}

/// The reference: the PostingSource default (lazy fragment cursor over
/// the shard's merged cursor) under the same global-stats model.
ImpactSequence Reference(const ShardedSnapshot& snap, size_t s, TermId t) {
  return Drain(*snap.shard_source(s).PostingSource::OpenImpactCursor(
      t, snap.shard_model(s)));
}

constexpr TermId kDense = 1;  // in every document: > 512 live per shard

/// 3 shards in `dir`, 1800 documents: two flushed rounds and a memtable
/// round per shard, tombstones (every global id % 13 == 5) in all three.
std::unique_ptr<ShardedCatalog> ImpactShards(const std::string& dir) {
  std::filesystem::remove_all(dir);
  ShardedCatalog::Options options;
  options.num_shards = 3;
  options.shard.num_terms = kVocab;
  options.shard.dir = dir;
  options.shard.segment_block_size = 4;
  auto created = ShardedCatalog::Create(options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedCatalog> catalog = std::move(created).ValueOrDie();
  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    std::vector<DocTerms> batch;
    for (int i = 0; i < 600; ++i) {
      DocTerms d = SynthDoc(rng);
      d.erase(std::remove_if(d.begin(), d.end(),
                             [](const auto& p) { return p.first == kDense; }),
              d.end());
      d.insert(d.begin(), {kDense, 1 + static_cast<uint32_t>(i % 5)});
      batch.push_back(d);
    }
    EXPECT_TRUE(catalog->AddDocuments(batch).ok());
    if (round < 2) EXPECT_TRUE(catalog->FlushAll().ok());
  }
  for (DocId g = 5; g < 1800; g += 13) {
    EXPECT_TRUE(catalog->DeleteDocument(g).ok());
  }
  return catalog;
}

TEST(ShardImpactCacheTest, CachedOrderMatchesLazyFragmentOrderBitForBit) {
  auto catalog =
      ImpactShards(std::string(::testing::TempDir()) + "/shard_impact");
  const auto snap = catalog->Snapshot();
  for (size_t s = 0; s < snap->num_shards(); ++s) {
    const CatalogState& state = snap->shard_state(s);
    ASSERT_EQ(state.segments().size(), 2u);
    EXPECT_GT(state.segments()[0]->num_deleted + state.segments()[1]->num_deleted,
              0u);
    EXPECT_GT(state.stats().df[kDense],
              TermImpactCache::kPrefix * TermImpactCache::kGrowth);
    for (TermId t = 0; t < kVocab; ++t) {
      const double bound = t % 2 == 0 ? snap->ShardTermBound(s, t) : -1.0;
      const ImpactSequence cached = Cached(*snap, s, t);
      ASSERT_EQ(cached, Reference(*snap, s, t)) << "shard " << s << " term " << t;
      EXPECT_EQ(cached.size(), state.stats().df[t]);
      // size() reports the global df, like the view's DocFrequency.
      EXPECT_EQ(snap->shard_source(s)
                    .OpenImpactCursor(t, snap->shard_model(s))
                    ->size(),
                snap->stats().df[t]);
      EXPECT_EQ(t % 2 == 0 ? bound : snap->ShardTermBound(s, t),
                cached.empty() ? 0.0 : std::get<2>(cached.front()))
          << "shard " << s << " term " << t;
      EXPECT_EQ(snap->shard_source(s).MaxImpact(t),
                snap->ShardTermBound(s, t));
    }
  }
}

TEST(ShardImpactCacheTest, PinnedSnapshotKeepsItsOrderAcrossMutations) {
  auto catalog = ImpactShards(std::string(::testing::TempDir()) +
                              "/shard_impact_pinned");
  const auto pinned = catalog->Snapshot();
  const ImpactSequence before = Cached(*pinned, 2, kDense);

  // Shard 0 takes the new document (least loaded, lowest index) and shard
  // 1 two tombstones: shard 2's state is untouched, but the global
  // statistics moved, so its weights must move with them.
  ASSERT_TRUE(catalog->AddDocument({{kDense, 3}, {2, 1}}).ok());
  ASSERT_TRUE(catalog->DeleteDocument(1).ok());
  ASSERT_TRUE(catalog->DeleteDocument(4).ok());
  const auto fresh = catalog->Snapshot();
  ASSERT_EQ(&fresh->shard_state(2), &pinned->shard_state(2));
  ASSERT_NE(fresh->stats().num_live_docs, pinned->stats().num_live_docs);

  EXPECT_EQ(Cached(*pinned, 2, kDense), before);
  EXPECT_EQ(Cached(*pinned, 0, kDense), Reference(*pinned, 0, kDense));
  const ImpactSequence after = Cached(*fresh, 2, kDense);
  EXPECT_EQ(after, Reference(*fresh, 2, kDense));
  ASSERT_EQ(after.size(), before.size());
  EXPECT_NE(std::get<2>(after.front()), std::get<2>(before.front()));
  EXPECT_EQ(fresh->ShardTermBound(2, kDense), std::get<2>(after.front()));
  EXPECT_EQ(pinned->ShardTermBound(2, kDense), std::get<2>(before.front()));
}

TEST(ShardImpactCacheTest, ConcurrentFirstUseSeesOneOrder) {
  auto catalog = ImpactShards(std::string(::testing::TempDir()) +
                              "/shard_impact_concurrent");
  const auto snap = catalog->Snapshot();
  constexpr size_t kThreads = 8;
  std::vector<ImpactSequence> seen(kThreads);
  std::vector<double> bounds(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      if (i % 2 == 0) bounds[i] = snap->ShardTermBound(1, kDense);
      seen[i] = Cached(*snap, 1, kDense);
      if (i % 2 != 0) bounds[i] = snap->ShardTermBound(1, kDense);
    });
  }
  for (std::thread& t : threads) t.join();
  const ImpactSequence reference = Reference(*snap, 1, kDense);
  ASSERT_FALSE(reference.empty());
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], reference) << "thread " << i;
    EXPECT_EQ(bounds[i], std::get<2>(reference.front())) << "thread " << i;
  }
}

TEST(ShardedCatalogTest, IdMappingRoundTrips) {
  for (const size_t shards : {1u, 2u, 3u, 4u, 7u}) {
    for (DocId global = 0; global < 100; ++global) {
      const size_t s = ShardedCatalog::ShardOf(global, shards);
      const DocId local = ShardedCatalog::LocalOf(global, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(ShardedCatalog::GlobalOf(local, s, shards), global);
    }
    // Distinct (shard, local) pairs map to distinct globals.
    for (size_t s = 0; s < shards; ++s) {
      for (DocId local = 0; local < 8; ++local) {
        const DocId g = ShardedCatalog::GlobalOf(local, s, shards);
        EXPECT_EQ(ShardedCatalog::ShardOf(g, shards), s);
        EXPECT_EQ(ShardedCatalog::LocalOf(g, shards), local);
      }
    }
  }
}

TEST(ShardedCatalogTest, PristineRoutingAssignsIdentityIds) {
  ShardedCatalog::Options options;
  options.num_shards = 3;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedCatalog& catalog = *created.ValueOrDie();

  // Least-loaded routing from empty degenerates to round-robin: a seed
  // batch gets the identity ids 0..k-1, exactly like a single catalog.
  Rng rng(41);
  std::vector<DocTerms> batch;
  for (int i = 0; i < 7; ++i) batch.push_back(SynthDoc(rng));
  auto ids = catalog.AddDocuments(batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.ValueOrDie().size(), 7u);
  for (DocId k = 0; k < 7; ++k) EXPECT_EQ(ids.ValueOrDie()[k], k);

  // Doc spaces are 3/2/2 — the next two adds fill shards 1 then 2
  // (smallest doc space, ties to the lowest index), i.e. globals 7, 8.
  auto next = catalog.AddDocument(SynthDoc(rng));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 7u);
  next = catalog.AddDocument(SynthDoc(rng));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 8u);

  // Deletes tombstone but keep the slot: routing is by doc *space*, so
  // the id sequence keeps interleaving regardless of tombstones.
  ASSERT_TRUE(catalog.DeleteDocument(0).ok());
  next = catalog.AddDocument(SynthDoc(rng));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 9u);
}

TEST(ShardedCatalogTest, SnapshotAggregatesGlobalStats) {
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();

  // Doc 0 -> shard 0, doc 1 -> shard 1: term 5 spans both shards.
  ASSERT_TRUE(catalog.AddDocument({{5, 2}, {9, 1}}).ok());
  ASSERT_TRUE(catalog.AddDocument({{5, 1}, {11, 3}}).ok());
  auto snap = catalog.Snapshot();
  EXPECT_EQ(snap->num_shards(), 2u);
  EXPECT_EQ(snap->stats().num_live_docs, 2u);
  EXPECT_EQ(snap->stats().df[5], 2u);
  EXPECT_EQ(snap->stats().df[9], 1u);
  EXPECT_EQ(snap->stats().df[11], 1u);
  EXPECT_EQ(snap->stats().cf[5], 3);
  EXPECT_EQ(snap->stats().total_live_tokens, 2 + 1 + 1 + 3);
  EXPECT_EQ(snap->doc_space(), 2u);

  // Global-id document access routes to the owning shard.
  EXPECT_EQ(snap->DocLength(0), 3u);
  EXPECT_EQ(snap->DocLength(1), 4u);
  EXPECT_FALSE(snap->IsDeleted(0));
  ASSERT_TRUE(snap->FindTf(11, 1).has_value());
  EXPECT_EQ(*snap->FindTf(11, 1), 3u);
  EXPECT_FALSE(snap->FindTf(11, 0).has_value());
  EXPECT_EQ(snap->LiveDocIds(), (std::vector<DocId>{0, 1}));

  // Versions are strictly monotone across mutations; the per-shard read
  // view reports the *global* df even where the shard's list is shorter.
  const uint64_t v0 = snap->version();
  ASSERT_TRUE(catalog.DeleteDocument(1).ok());
  auto snap2 = catalog.Snapshot();
  EXPECT_GT(snap2->version(), v0);
  EXPECT_EQ(snap2->stats().num_live_docs, 1u);
  EXPECT_EQ(snap2->stats().df[11], 0u);
  EXPECT_TRUE(snap2->IsDeleted(1));
  EXPECT_EQ(snap2->shard_source(0).DocFrequency(5), 1u);
  EXPECT_EQ(snap2->shard_source(1).DocFrequency(5), 1u);

  // The first snapshot is unaffected (snapshot-per-query isolation).
  EXPECT_EQ(snap->stats().num_live_docs, 2u);
}

TEST(ShardedCatalogTest, UpdateDocumentMovesDocToFreshTailId) {
  ShardedCatalog::Options options;
  options.num_shards = 2;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();
  Rng rng(43);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(catalog.AddDocument(SynthDoc(rng)).ok());
  }

  const DocTerms replacement{{7, 5}};
  auto updated = catalog.UpdateDocument(1, replacement);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const DocId fresh = updated.ValueOrDie();
  EXPECT_EQ(fresh, 4u);  // balanced spaces -> shard 0, local 2 -> global 4
  auto snap = catalog.Snapshot();
  EXPECT_TRUE(snap->IsDeleted(1));
  EXPECT_EQ(snap->TermsOf(fresh), replacement);
  EXPECT_EQ(snap->stats().num_live_docs, 4u);

  // Upserting a dead id fails without re-adding.
  EXPECT_FALSE(catalog.UpdateDocument(1, replacement).ok());
  EXPECT_EQ(catalog.Snapshot()->stats().num_live_docs, 4u);
}

// Four shards, one query term concentrated in shard 0 (high weight) with a
// weak echo in shard 1: sequential bound-ordered visiting must answer from
// shard 0 alone and account the three pruned shards — including the one
// posting shard 1 would have streamed.
TEST(ShardedCatalogTest, CoordinatorSkipsShardsBelowTheNthBound) {
  ShardedCatalog::Options options;
  options.num_shards = 4;
  options.shard.num_terms = kVocab;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedCatalog& catalog = *created.ValueOrDie();

  constexpr TermId kTerm = 7;
  // Round-robin placement from empty: docs 0..3 land on shards 0..3.
  ASSERT_TRUE(catalog.AddDocument({{kTerm, 4}}).ok());              // shard 0
  ASSERT_TRUE(
      catalog.AddDocument({{kTerm, 1}, {1, 1}, {2, 1}, {3, 1}}).ok());  // 1
  ASSERT_TRUE(catalog.AddDocument({{1, 2}, {2, 1}}).ok());          // shard 2
  ASSERT_TRUE(catalog.AddDocument({{2, 2}, {3, 1}}).ok());          // shard 3
  auto snap = catalog.Snapshot();

  // Bound cache: zero where the shard has no live posting, and the
  // higher-tf/shorter doc dominates. Query bounds are per-term sums.
  const double b0 = snap->ShardTermBound(0, kTerm);
  const double b1 = snap->ShardTermBound(1, kTerm);
  EXPECT_GT(b0, b1);
  EXPECT_GT(b1, 0.0);
  EXPECT_EQ(snap->ShardTermBound(2, kTerm), 0.0);
  EXPECT_EQ(snap->ShardTermBound(3, kTerm), 0.0);
  const Query two_terms{{kTerm, 1}};
  EXPECT_DOUBLE_EQ(snap->ShardQueryBound(1, two_terms),
                   snap->ShardTermBound(1, kTerm) +
                       snap->ShardTermBound(1, 1));

  const Query q{{kTerm}};
  ShardCoordinator::Options copts;
  copts.parallelism = 1;  // sequential visiting maximizes skips
  auto result =
      ShardCoordinator::Execute(snap, PhysicalStrategy::kHeap, q, 1,
                                ExecOptions{}, copts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopNResult& top = result.ValueOrDie();
  ASSERT_EQ(top.items.size(), 1u);
  EXPECT_EQ(top.items[0].doc, 0u);
  EXPECT_GT(top.items[0].score, 0.0);
  // Shard 0's single exact score *is* its bound; every other bound is
  // strictly below it, so the remaining three shards are pruned and the
  // one posting shard 1 held for the term is the skipped work.
  EXPECT_EQ(top.stats.cost.shards_visited, 1);
  EXPECT_EQ(top.stats.cost.shards_skipped, 3);
  EXPECT_EQ(top.stats.cost.shard_postings_skipped, 1);
  EXPECT_TRUE(top.stats.stopped_early);

  // A full-width wave visits everything at once: no skip opportunity.
  copts.parallelism = 4;
  result = ShardCoordinator::Execute(snap, PhysicalStrategy::kHeap, q, 1,
                                     ExecOptions{}, copts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().stats.cost.shards_visited, 4);
  EXPECT_EQ(result.ValueOrDie().stats.cost.shards_skipped, 0);
  EXPECT_EQ(result.ValueOrDie().items[0].doc, 0u);
}

TEST(ShardedCatalogTest, DurableShardsRecoverAcrossReopen) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_catalog_durable";
  std::filesystem::remove_all(dir);
  ShardedCatalog::Options options;
  options.num_shards = 3;
  options.shard.num_terms = kVocab;
  options.shard.dir = dir;

  Rng rng(44);
  std::vector<DocId> live_before;
  CatalogStats stats_before(kVocab);
  {
    auto created = ShardedCatalog::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedCatalog& catalog = *created.ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(catalog.AddDocument(SynthDoc(rng)).ok());
    }
    ASSERT_TRUE(catalog.DeleteDocument(4).ok());
    ASSERT_TRUE(catalog.FlushAll().ok());
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_TRUE(std::filesystem::exists(dir + "/shard_" +
                                          std::to_string(s) + "/MANIFEST"));
    }
    auto merged = catalog.Merge(/*shard=*/1);
    ASSERT_TRUE(merged.ok());
    const auto snap = catalog.Snapshot();
    live_before = snap->LiveDocIds();
    stats_before = snap->stats();
  }

  // Create refuses a directory that already holds shard manifests.
  EXPECT_FALSE(ShardedCatalog::Create(options).ok());

  auto reopened = ShardedCatalog::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto snap = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(snap->LiveDocIds(), live_before);
  EXPECT_EQ(snap->stats().num_live_docs, stats_before.num_live_docs);
  EXPECT_EQ(snap->stats().df, stats_before.df);
  EXPECT_EQ(snap->stats().cf, stats_before.cf);
  EXPECT_EQ(snap->stats().total_live_tokens, stats_before.total_live_tokens);
}

// ---------------------------------------------------------------------------
// Engine-level parity: the same lifecycle against an unsharded database
// and against num_shards in {2, 4}. The lifecycle keeps the id spaces
// aligned (a balanced seed gets identity ids; adds stay interleaved and
// deletes do not move doc spaces; flush is id-stable; no merges), so safe
// strategies must agree doc-for-doc and bit-for-bit on scores — except
// that ranks tying the returned n-th score may legally swap equal-scored
// docs (the distributed max-score threshold prunes ties).

DatabaseConfig ShardedConfig(const std::string& dir, size_t num_shards) {
  DatabaseConfig config;
  config.collection.num_docs = 120;
  config.collection.vocabulary = kVocab;
  config.collection.mean_doc_length = 50;
  config.collection.seed = 880022;
  config.catalog_dir = dir;
  config.num_shards = num_shards;
  return config;
}

/// Applies the shared id-space-aligned lifecycle to one database.
void RunAlignedLifecycle(MmDatabase& db) {
  Rng rng(0xA11C);
  std::vector<DocId> added;
  for (int i = 0; i < 12; ++i) {
    auto id = db.AddDocument(SynthDoc(rng));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    added.push_back(id.ValueOrDie());
  }
  ASSERT_TRUE(db.DeleteDocument(3).ok());
  ASSERT_TRUE(db.DeleteDocument(77).ok());
  ASSERT_TRUE(db.DeleteDocument(added[5]).ok());
  auto updated = db.UpdateDocument(10, SynthDoc(rng));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_TRUE(db.Flush().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.AddDocument(SynthDoc(rng)).ok());
  }
  ASSERT_TRUE(db.DeleteDocument(50).ok());
}

void ExpectShardedParity(const TopNResult& ref, const TopNResult& got,
                         size_t n, const char* label) {
  ASSERT_EQ(ref.items.size(), got.items.size()) << label;
  for (size_t i = 0; i < ref.items.size(); ++i) {
    EXPECT_EQ(got.items[i].score, ref.items[i].score)
        << label << " rank " << i;
  }
  const bool full = got.items.size() == n;
  for (size_t i = 0; i < ref.items.size(); ++i) {
    if (full && ref.items[i].score == ref.items.back().score) continue;
    EXPECT_EQ(got.items[i].doc, ref.items[i].doc) << label << " rank " << i;
  }
}

TEST(ShardedCatalogTest, EngineShardedSearchMatchesUnsharded) {
  const std::string base =
      std::string(::testing::TempDir()) + "/sharded_engine_parity";
  std::filesystem::remove_all(base + "_1");
  auto opened = MmDatabase::Open(ShardedConfig(base + "_1", 1));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& reference = *opened.ValueOrDie();
  RunAlignedLifecycle(reference);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_NE(reference.catalog(), nullptr);
  ASSERT_EQ(reference.sharded_catalog(), nullptr);

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 10;
  qconfig.terms_per_query = 3;
  qconfig.distribution = QueryTermDistribution::kMixed;
  qconfig.seed = 6161;
  const std::vector<Query> queries =
      GenerateQueries(reference.collection(), qconfig).ValueOrDie();

  for (const size_t shards : {2u, 4u}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    const std::string dir = base + "_" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    auto sharded_open = MmDatabase::Open(ShardedConfig(dir, shards));
    ASSERT_TRUE(sharded_open.ok()) << sharded_open.status().ToString();
    MmDatabase& db = *sharded_open.ValueOrDie();
    RunAlignedLifecycle(db);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(db.catalog(), nullptr);
    ASSERT_NE(db.sharded_catalog(), nullptr);
    EXPECT_EQ(db.sharded_catalog()->num_shards(), shards);

    // The aligned lifecycle keeps the live id sets equal.
    ASSERT_EQ(db.sharded_catalog()->Snapshot()->LiveDocIds(),
              reference.catalog()->Snapshot()->LiveDocIds());

    for (const Query& q : queries) {
      // Exact ground truth is id-aligned, so it must match exactly.
      const auto truth = reference.GroundTruth(q, kTopN);
      const auto sharded_truth = db.GroundTruth(q, kTopN);
      ASSERT_EQ(truth.size(), sharded_truth.size());
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(truth[i], sharded_truth[i]) << "ground truth rank " << i;
      }

      for (PhysicalStrategy s : AllStrategies()) {
        if (!IsSafeStrategy(s)) continue;  // per-shard pruning diverges
        auto expected = reference.Execute(s, q, kTopN);
        auto actual = db.Execute(s, q, kTopN);
        ASSERT_TRUE(expected.ok()) << StrategyName(s);
        ASSERT_TRUE(actual.ok())
            << StrategyName(s) << ": " << actual.status().ToString();
        if (s == PhysicalStrategy::kFaginNRA) {
          // Set-level: merged partial lower bounds are partition-
          // dependent, but membership in the exact top-N is not.
          const std::vector<double> scores = reference.GroundTruthScores(q);
          ASSERT_EQ(actual.ValueOrDie().items.size(), truth.size())
              << StrategyName(s);
          for (const ScoredDoc& sd : actual.ValueOrDie().items) {
            ASSERT_LT(sd.doc, scores.size());
            EXPECT_GE(scores[sd.doc] + 1e-9, truth.back().score)
                << StrategyName(s) << " doc " << sd.doc;
          }
          continue;
        }
        ExpectShardedParity(expected.ValueOrDie(), actual.ValueOrDie(),
                            kTopN, StrategyName(s));
      }

      // Planner-driven Search stays safe and exact. Each shard plans for
      // itself, and different safe strategies accumulate float sums in
      // different orders, so the check is against exact ground truth with
      // an epsilon rather than bitwise against any one strategy.
      QueryRequest request;
      request.query = q;
      request.n = kTopN;
      auto planned = db.Search(request);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_TRUE(planned.ValueOrDie().planned);
      EXPECT_TRUE(IsSafeStrategy(planned.ValueOrDie().strategy));
      const std::vector<ScoredDoc>& planned_items =
          planned.ValueOrDie().top.items;
      const std::vector<double> exact = reference.GroundTruthScores(q);
      ASSERT_EQ(planned_items.size(), truth.size());
      for (const ScoredDoc& sd : planned_items) {
        ASSERT_LT(sd.doc, exact.size());
        EXPECT_GE(exact[sd.doc] + 1e-9, truth.back().score)
            << "planned doc " << sd.doc << " outside the exact top-N";
        EXPECT_NEAR(sd.score, exact[sd.doc], 1e-9)
            << "planned doc " << sd.doc;
      }
    }

    // SearchBatch fans out over the same coordinator (nested parallelism
    // degrades gracefully); forced runs must equal sequential Execute.
    const QueryOptions forced =
        testutil::ForcedOptions(PhysicalStrategy::kMaxScore);
    auto batch = db.SearchBatch(testutil::Requests(queries, kTopN, forced), 4);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.ValueOrDie().results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto sequential = db.Execute(PhysicalStrategy::kMaxScore, queries[i],
                                   kTopN);
      ASSERT_TRUE(sequential.ok());
      ExpectShardedParity(sequential.ValueOrDie(),
                          batch.ValueOrDie().results[i].top, kTopN,
                          "search batch");
    }

    // Explain names the sharded storage and the shard visit/skip split.
    auto report = db.ExplainSearch(QueryRequest{queries[0], kTopN});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string text = report.ValueOrDie().ToString();
    EXPECT_NE(text.find("storage: sharded("), std::string::npos) << text;
    EXPECT_NE(text.find("shards: visited"), std::string::npos) << text;
  }
}

TEST(ShardedCatalogTest, EngineReopensShardedCatalogFromDisk) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/sharded_engine_reopen";
  std::filesystem::remove_all(dir);
  const DatabaseConfig config = ShardedConfig(dir, 2);
  uint64_t live_before = 0;
  {
    auto db = MmDatabase::Open(config);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.ValueOrDie()->AddDocument({{1, 2}, {2, 1}}).ok());
    ASSERT_TRUE(db.ValueOrDie()->DeleteDocument(9).ok());
    ASSERT_TRUE(db.ValueOrDie()->Flush().ok());
    live_before =
        db.ValueOrDie()->sharded_catalog()->Snapshot()->stats().num_live_docs;
    ASSERT_EQ(live_before, 120u);  // 120 seeded + 1 added - 1 deleted
  }
  auto reopened = MmDatabase::Open(config);
  ASSERT_TRUE(reopened.ok());
  // First mutation recovers the durable shards instead of re-seeding.
  auto id = reopened.ValueOrDie()->AddDocument({{3, 1}});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto snap = reopened.ValueOrDie()->sharded_catalog()->Snapshot();
  EXPECT_EQ(snap->stats().num_live_docs, live_before + 1);
  EXPECT_TRUE(snap->IsDeleted(9));
}

}  // namespace
}  // namespace moa
