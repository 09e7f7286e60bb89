// Differential lifecycle fuzz harness (in the spirit of LSM-store
// crash/differential testing): seeded random op sequences — AddDocument /
// AddDocuments / DeleteDocument / UpdateDocument / Flush / Merge /
// Attach / Detach / Search / SearchBatch — run against an MmDatabase,
// periodically checked against a *fresh in-memory oracle* built from an
// independently replayed shadow of the documented doc-id rules, across
// every registered strategy:
//
//   - safe strategies must be bit-identical to the oracle under the
//     replayed id mapping (scores EXPECT_EQ, not NEAR);
//   - unsafe (quality) strategies must earn exactly the same
//     precision/recall metrics (ir/metrics) against the oracle's exact
//     ground truth as the oracle's own run of the same strategy;
//   - no tombstoned document may ever surface, and the catalog's own
//     LiveDocIds/statistics must agree with the replay before any result
//     is trusted.
//
// A second harness replays the same kind of op stream through a
// ShardedCatalog (N in {1, 2, 4}) with per-shard Flush/Merge interleaved,
// executing queries through the ShardCoordinator and holding safe
// strategies to the single-index oracle under the interleaved global-id
// mapping (fagin_nra set-level: its merged partial lower bounds are
// partition-dependent, so only membership in the exact top-N is stable).
//
// CI runs a few fixed-seed iterations (deterministic); set MOA_FUZZ_ITERS
// for long local runs, e.g.  MOA_FUZZ_ITERS=50 ctest -R lifecycle_fuzz.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "ir/exact_eval.h"
#include "ir/metrics.h"
#include "storage/catalog/background_jobs.h"
#include "storage/catalog/index_catalog.h"
#include "storage/catalog/manifest.h"
#include "storage/catalog/sharded_catalog.h"
#include "storage/catalog/wal.h"
#include "test_util.h"

namespace moa {
namespace {

constexpr uint32_t kVocab = 400;
constexpr size_t kTopN = 10;

int Iterations() {
  if (const char* env = std::getenv("MOA_FUZZ_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 3;  // fixed-seed CI default
}

/// Independent replay of the documented id rules: ids are dense in
/// insertion order, deletes tombstone in place, flush is id-stable, a
/// full merge drops dead flushed slots and compacts.
struct Shadow {
  struct Slot {
    DocTerms terms;
    bool alive = true;
  };
  std::vector<Slot> slots;
  size_t flushed = 0;

  void Add(DocTerms terms) { slots.push_back(Slot{std::move(terms), true}); }
  void Delete(DocId id) { slots[id].alive = false; }
  /// Upsert = delete + add: the replacement takes a fresh tail id.
  void Update(DocId id, DocTerms terms) {
    Delete(id);
    Add(std::move(terms));
  }
  void Flush() { flushed = slots.size(); }
  void MergeAll() {
    std::vector<Slot> next;
    for (size_t i = 0; i < flushed; ++i) {
      if (slots[i].alive) next.push_back(std::move(slots[i]));
    }
    const size_t kept = next.size();
    for (size_t i = flushed; i < slots.size(); ++i) {
      next.push_back(std::move(slots[i]));
    }
    slots = std::move(next);
    flushed = kept;
  }

  std::vector<DocId> LiveIds() const {
    std::vector<DocId> live;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].alive) live.push_back(static_cast<DocId>(i));
    }
    return live;
  }
  size_t LiveCount() const { return LiveIds().size(); }
};

/// Fresh single-index oracle over the shadow's survivors.
struct Oracle {
  std::unique_ptr<InvertedFile> file;
  std::unique_ptr<ScoringModel> model;
  Fragmentation fragmentation;
  std::unique_ptr<SparseIndexCache> sparse_cache =
      std::make_unique<SparseIndexCache>();
  std::vector<DocId> to_catalog;                 // oracle id -> catalog id
  std::unordered_map<DocId, DocId> to_oracle;    // catalog id -> oracle id

  ExecContext context() const {
    ExecContext ctx;
    ctx.file = file.get();
    ctx.model = model.get();
    ctx.fragmentation = &fragmentation;
    ctx.sparse_cache = sparse_cache.get();
    return ctx;
  }
};

Oracle BuildOracle(const Shadow& shadow,
                   const FragmentationPolicy& policy) {
  Oracle oracle;
  oracle.to_catalog = shadow.LiveIds();
  InvertedFileBuilder builder(kVocab);
  for (size_t k = 0; k < oracle.to_catalog.size(); ++k) {
    const DocId catalog_id = oracle.to_catalog[k];
    oracle.to_oracle.emplace(catalog_id, static_cast<DocId>(k));
    EXPECT_TRUE(
        builder.AddDocument(static_cast<DocId>(k),
                            shadow.slots[catalog_id].terms)
            .ok());
  }
  oracle.file = std::make_unique<InvertedFile>(builder.Build());
  oracle.model = MakeBm25(oracle.file.get());
  oracle.file->BuildImpactOrders([&](TermId t, const Posting& p) {
    return oracle.model->Weight(t, p);
  });
  oracle.fragmentation = Fragmentation::Build(*oracle.file, policy);
  return oracle;
}

DocTerms RandomDoc(Rng& rng) {
  std::map<TermId, uint32_t> terms;
  const size_t want = 5 + rng.Uniform(10);
  while (terms.size() < want) {
    terms.emplace(static_cast<TermId>(rng.Uniform(kVocab)),
                  1 + static_cast<uint32_t>(rng.Uniform(4)));
  }
  return DocTerms(terms.begin(), terms.end());
}

std::vector<Query> RandomQueries(Rng& rng, size_t count) {
  std::vector<Query> queries;
  for (size_t i = 0; i < count; ++i) {
    Query q;
    const size_t terms = 2 + rng.Uniform(4);
    for (size_t j = 0; j < terms; ++j) {
      q.terms.push_back(static_cast<TermId>(rng.Uniform(kVocab)));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Differential check of one strategy on one query: exact strategies
/// bit-identical under the id mapping, quality strategies metric-equal
/// against the oracle's exact ground truth.
void CheckStrategy(MmDatabase& db, const Oracle& oracle, PhysicalStrategy s,
                   const Query& q) {
  const ExecContext ref_ctx = oracle.context();
  auto expected =
      StrategyRegistry::Global().Execute(s, ref_ctx, q, kTopN, ExecOptions{});
  auto actual = db.Execute(s, q, kTopN);
  ASSERT_TRUE(expected.ok()) << StrategyName(s) << ": "
                             << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << StrategyName(s) << ": "
                           << actual.status().ToString();
  const std::vector<ScoredDoc>& got = actual.ValueOrDie().items;

  // Universal invariant: only live documents, mapped ids in range.
  std::vector<ScoredDoc> mapped;
  for (const ScoredDoc& sd : got) {
    auto it = oracle.to_oracle.find(sd.doc);
    ASSERT_NE(it, oracle.to_oracle.end())
        << StrategyName(s) << " returned dead/unknown doc " << sd.doc;
    mapped.push_back(ScoredDoc{it->second, sd.score});
  }

  if (IsSafeStrategy(s)) {
    const std::vector<ScoredDoc>& ref = expected.ValueOrDie().items;
    ASSERT_EQ(ref.size(), mapped.size()) << StrategyName(s);
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(mapped[i].doc, ref[i].doc)
          << StrategyName(s) << " rank " << i;
      EXPECT_EQ(mapped[i].score, ref[i].score)
          << StrategyName(s) << " rank " << i;
    }
    return;
  }

  // Quality strategies: same precision/recall as the oracle's own run.
  const std::vector<ScoredDoc> truth =
      ExactTopN(*oracle.file, *oracle.model, q, kTopN);
  if (truth.empty()) {
    EXPECT_TRUE(mapped.empty()) << StrategyName(s);
    EXPECT_TRUE(expected.ValueOrDie().items.empty()) << StrategyName(s);
    return;
  }
  const std::vector<double> truth_scores =
      AccumulateScores(*oracle.file, *oracle.model, q);
  const QualityReport ours =
      EvaluateQuality(mapped, truth, truth_scores);
  const QualityReport theirs =
      EvaluateQuality(expected.ValueOrDie().items, truth, truth_scores);
  EXPECT_DOUBLE_EQ(ours.overlap_at_n, theirs.overlap_at_n)
      << StrategyName(s);
  EXPECT_DOUBLE_EQ(ours.score_ratio, theirs.score_ratio) << StrategyName(s);
}

/// Planner-mode round: an unforced QueryRequest must route through the
/// planner, pick a safe strategy at the default (exact) quality target,
/// match the oracle's run of that same strategy bit-for-bit, and re-plan
/// identically for the same snapshot + query. A lax-target request may
/// pick an unsafe strategy instead; its result must equal this database's
/// own forced run of the chosen strategy, which CheckStrategy separately
/// holds to the oracle's quality metrics.
void CheckPlanned(MmDatabase& db, const Oracle& oracle, const Query& q) {
  QueryRequest request;
  request.query = q;
  request.n = kTopN;
  auto first = db.Search(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const SearchResult& r = first.ValueOrDie();
  ASSERT_TRUE(r.planned);
  ASSERT_TRUE(IsSafeStrategy(r.strategy)) << StrategyName(r.strategy);

  auto expected = StrategyRegistry::Global().Execute(
      r.strategy, oracle.context(), q, kTopN, ExecOptions{});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::vector<ScoredDoc>& ref = expected.ValueOrDie().items;
  ASSERT_EQ(ref.size(), r.top.items.size()) << StrategyName(r.strategy);
  for (size_t i = 0; i < ref.size(); ++i) {
    auto it = oracle.to_oracle.find(r.top.items[i].doc);
    ASSERT_NE(it, oracle.to_oracle.end())
        << "planned run surfaced dead/unknown doc " << r.top.items[i].doc;
    EXPECT_EQ(it->second, ref[i].doc)
        << StrategyName(r.strategy) << " rank " << i;
    EXPECT_EQ(r.top.items[i].score, ref[i].score)
        << StrategyName(r.strategy) << " rank " << i;
  }

  // Determinism: same snapshot, same query => same plan, Explain agrees.
  auto second = db.Search(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().strategy, r.strategy);
  auto report = db.ExplainSearch(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().decision.strategy, r.strategy);
  EXPECT_FALSE(report.ValueOrDie().decision.forced);

  // Lax target: whatever (possibly unsafe) strategy wins, the planned
  // run must reproduce the forced run of that strategy exactly.
  request.options.quality_target = 0.0;
  auto lax = db.Search(request);
  ASSERT_TRUE(lax.ok()) << lax.status().ToString();
  const PhysicalStrategy chosen = lax.ValueOrDie().strategy;
  CheckStrategy(db, oracle, chosen, q);
  if (::testing::Test::HasFatalFailure()) return;
  auto forced_run = db.Execute(chosen, q, kTopN);
  ASSERT_TRUE(forced_run.ok());
  const std::vector<ScoredDoc>& a = forced_run.ValueOrDie().items;
  const std::vector<ScoredDoc>& b = lax.ValueOrDie().top.items;
  ASSERT_EQ(a.size(), b.size()) << StrategyName(chosen);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << StrategyName(chosen) << " rank " << i;
  }
}

/// Cross-checks catalog bookkeeping against the replay before trusting
/// any differential result.
void CheckBookkeeping(MmDatabase& db, const Shadow& shadow,
                      const Oracle& oracle) {
  ASSERT_TRUE(db.is_dynamic());
  const auto state = db.catalog()->Snapshot();
  ASSERT_EQ(state->LiveDocIds(), oracle.to_catalog);
  ASSERT_EQ(state->stats().num_live_docs, oracle.file->num_docs());
  ASSERT_EQ(state->stats().total_live_tokens, oracle.file->total_tokens());
  for (TermId t = 0; t < kVocab; ++t) {
    ASSERT_EQ(state->stats().df[t], oracle.file->DocFrequency(t))
        << "term " << t;
  }
  (void)shadow;
}

void RunIteration(uint64_t seed, int iteration) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  Rng rng(seed);

  const std::string dir = std::string(::testing::TempDir()) +
                          "/lifecycle_fuzz_" + std::to_string(iteration);
  std::filesystem::remove_all(dir);
  DatabaseConfig config;
  config.collection.num_docs = 150;
  config.collection.vocabulary = kVocab;
  config.collection.mean_doc_length = 40;
  config.collection.seed = seed ^ 0x5EED;
  config.catalog_dir = dir;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MmDatabase& db = *opened.ValueOrDie();

  // ---- Static phase: save + attach a segment, spot-check, detach. ----
  const std::string segment_path = dir + ".moaseg";
  std::filesystem::create_directories(::testing::TempDir());
  ASSERT_TRUE(db.SaveSegment(segment_path).ok());
  ASSERT_TRUE(db.AttachSegment(segment_path).ok());
  {
    // Oracle for the static phase: the generated collection itself.
    Shadow initial;
    const InvertedFile& f = db.file();
    std::vector<DocTerms> docs(f.num_docs());
    for (TermId t = 0; t < f.num_terms(); ++t) {
      const PostingList& list = f.list(t);
      for (size_t i = 0; i < list.size(); ++i) {
        docs[list[i].doc].emplace_back(t, list[i].tf);
      }
    }
    for (DocTerms& d : docs) initial.Add(std::move(d));
    const Oracle oracle = BuildOracle(initial, config.fragmentation);
    for (const Query& q : RandomQueries(rng, 3)) {
      for (PhysicalStrategy s : AllStrategies()) {
        CheckStrategy(db, oracle, s, q);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  db.DetachSegment();
  std::remove(segment_path.c_str());
  std::remove((segment_path + ".frg").c_str());

  // ---- Dynamic phase: replayed random lifecycle. ----
  Shadow shadow;
  {
    const InvertedFile& f = db.file();
    std::vector<DocTerms> docs(f.num_docs());
    for (TermId t = 0; t < f.num_terms(); ++t) {
      const PostingList& list = f.list(t);
      for (size_t i = 0; i < list.size(); ++i) {
        docs[list[i].doc].emplace_back(t, list[i].tf);
      }
    }
    for (DocTerms& d : docs) shadow.Add(std::move(d));
  }

  const int ops = 36;
  for (int op = 0; op < ops; ++op) {
    const uint64_t pick = rng.Uniform(100);
    if (pick < 26) {  // AddDocument
      DocTerms doc = RandomDoc(rng);
      auto id = db.AddDocument(doc);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(id.ValueOrDie(), shadow.slots.size());
      shadow.Add(std::move(doc));
    } else if (pick < 34) {  // AddDocuments batch
      std::vector<DocTerms> batch;
      for (size_t i = 0; i < 1 + rng.Uniform(6); ++i) {
        batch.push_back(RandomDoc(rng));
      }
      auto first = db.AddDocuments(batch);
      ASSERT_TRUE(first.ok());
      ASSERT_EQ(first.ValueOrDie(), shadow.slots.size());
      for (DocTerms& d : batch) shadow.Add(std::move(d));
    } else if (pick < 46) {  // DeleteDocument
      const std::vector<DocId> live = shadow.LiveIds();
      if (!live.empty()) {
        const DocId victim = live[rng.Uniform(live.size())];
        ASSERT_TRUE(db.DeleteDocument(victim).ok());
        shadow.Delete(victim);
      }
    } else if (pick < 55) {  // UpdateDocument (upsert = delete + add)
      const std::vector<DocId> live = shadow.LiveIds();
      if (!live.empty()) {
        const DocId victim = live[rng.Uniform(live.size())];
        DocTerms doc = RandomDoc(rng);
        auto id = db.UpdateDocument(victim, doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(id.ValueOrDie(), shadow.slots.size());
        shadow.Update(victim, std::move(doc));
        // Upserting the now-dead id must fail without re-adding (the id
        // space stays aligned with the shadow).
        EXPECT_FALSE(db.UpdateDocument(victim, RandomDoc(rng)).ok());
      }
    } else if (pick < 67) {  // Flush
      ASSERT_TRUE(db.Flush().ok());
      shadow.Flush();
    } else if (pick < 75) {  // Merge (full)
      auto merged = db.Merge();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      shadow.MergeAll();
    } else if (pick < 80) {  // Attach/Detach are static-mode only now
      if (db.is_dynamic()) {
        EXPECT_EQ(db.AttachSegment(segment_path).code(),
                  StatusCode::kFailedPrecondition);
      }
    } else if (pick < 92) {  // Search check round
      if (!db.is_dynamic()) continue;
      const Oracle oracle = BuildOracle(shadow, config.fragmentation);
      CheckBookkeeping(db, shadow, oracle);
      if (::testing::Test::HasFatalFailure()) return;
      for (const Query& q : RandomQueries(rng, 2)) {
        for (PhysicalStrategy s : AllStrategies()) {
          CheckStrategy(db, oracle, s, q);
          if (::testing::Test::HasFatalFailure()) return;
        }
        CheckPlanned(db, oracle, q);
        if (::testing::Test::HasFatalFailure()) return;
      }
    } else {  // SearchBatch check round
      if (!db.is_dynamic()) continue;
      const Oracle oracle = BuildOracle(shadow, config.fragmentation);
      const std::vector<Query> queries = RandomQueries(rng, 4);
      const PhysicalStrategy s =
          AllStrategies()[rng.Uniform(AllStrategies().size())];
      auto batch = db.SearchBatch(
          testutil::Requests(queries, kTopN, testutil::ForcedOptions(s)), 4);
      ASSERT_TRUE(batch.ok()) << StrategyName(s) << ": "
                              << batch.status().ToString();
      for (size_t i = 0; i < queries.size(); ++i) {
        auto sequential = db.Execute(s, queries[i], kTopN);
        ASSERT_TRUE(sequential.ok());
        const auto& a = sequential.ValueOrDie().items;
        const auto& b = batch.ValueOrDie().results[i].top.items;
        ASSERT_EQ(a.size(), b.size()) << StrategyName(s);
        for (size_t r = 0; r < a.size(); ++r) {
          EXPECT_EQ(a[r], b[r]) << StrategyName(s) << " rank " << r;
        }
      }
    }
  }

  // Final full differential sweep, then once more after compaction.
  DocTerms final_doc = RandomDoc(rng);
  ASSERT_TRUE(db.AddDocument(final_doc).ok());
  shadow.Add(std::move(final_doc));
  for (const bool compact : {false, true}) {
    if (compact) {
      ASSERT_TRUE(db.Flush().ok());
      shadow.Flush();
      ASSERT_TRUE(db.Merge().ok());
      shadow.MergeAll();
    }
    const Oracle oracle = BuildOracle(shadow, config.fragmentation);
    CheckBookkeeping(db, shadow, oracle);
    if (::testing::Test::HasFatalFailure()) return;
    for (const Query& q : RandomQueries(rng, 3)) {
      for (PhysicalStrategy s : AllStrategies()) {
        CheckStrategy(db, oracle, s, q);
        if (::testing::Test::HasFatalFailure()) return;
      }
      CheckPlanned(db, oracle, q);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Explain still names the storage composition.
  auto report = db.ExplainSearch(QueryRequest{
      RandomQueries(rng, 1)[0], 10,
      testutil::ForcedOptions(PhysicalStrategy::kQualitySwitchSparse)});
  ASSERT_TRUE(report.ok());
  const std::string text = report.ValueOrDie().ToString();
  EXPECT_NE(text.find("storage: catalog"), std::string::npos);
  EXPECT_NE(text.find("fragmentation:"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(LifecycleFuzzTest, RandomLifecyclesMatchFreshOracle) {
  const int iterations = Iterations();
  for (int i = 0; i < iterations; ++i) {
    RunIteration(/*seed=*/0xF0A2'0000ull + static_cast<uint64_t>(i), i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Sharded lifecycle fuzz: the same differential idea one layer down. A
// ShardedCatalog absorbs a seeded op stream (adds, deletes, upserts,
// per-shard and all-shard flush/merge); queries run through the
// ShardCoordinator's bound-aware scatter-gather and are held to a fresh
// single-index oracle of the survivors under the interleaved global-id
// mapping.

/// Per-shard replay of the global id contract: global id g lives in shard
/// g % N at local id g / N, and each shard follows the single-catalog id
/// rules (dense insertion order, tombstone in place, merge compacts)
/// independently.
struct ShardedShadow {
  size_t num_shards;
  std::vector<Shadow> shards;

  explicit ShardedShadow(size_t n) : num_shards(n), shards(n) {}

  void Add(DocId global, DocTerms terms) {
    const size_t s = ShardedCatalog::ShardOf(global, num_shards);
    // The catalog must have appended to the owning shard's tail — the
    // local id is the shard's next dense slot.
    ASSERT_EQ(ShardedCatalog::LocalOf(global, num_shards),
              shards[s].slots.size());
    shards[s].Add(std::move(terms));
  }
  void Delete(DocId global) {
    shards[ShardedCatalog::ShardOf(global, num_shards)].Delete(
        ShardedCatalog::LocalOf(global, num_shards));
  }
  std::vector<DocId> LiveGlobalIds() const {
    std::vector<DocId> live;
    for (size_t s = 0; s < num_shards; ++s) {
      for (DocId local : shards[s].LiveIds()) {
        live.push_back(ShardedCatalog::GlobalOf(local, s, num_shards));
      }
    }
    std::sort(live.begin(), live.end());
    return live;
  }
  const DocTerms& TermsOf(DocId global) const {
    return shards[ShardedCatalog::ShardOf(global, num_shards)]
        .slots[ShardedCatalog::LocalOf(global, num_shards)]
        .terms;
  }
};

/// Single-index oracle over the sharded shadow's survivors, in ascending
/// global-id order — monotone with the catalog's id order, so the
/// oracle's (score desc, doc asc) tie-break agrees with the coordinator's.
Oracle BuildShardedOracle(const ShardedShadow& shadow,
                          const FragmentationPolicy& policy) {
  Oracle oracle;
  oracle.to_catalog = shadow.LiveGlobalIds();
  InvertedFileBuilder builder(kVocab);
  for (size_t k = 0; k < oracle.to_catalog.size(); ++k) {
    const DocId global = oracle.to_catalog[k];
    oracle.to_oracle.emplace(global, static_cast<DocId>(k));
    EXPECT_TRUE(builder.AddDocument(static_cast<DocId>(k),
                                    shadow.TermsOf(global))
                    .ok());
  }
  oracle.file = std::make_unique<InvertedFile>(builder.Build());
  oracle.model = MakeBm25(oracle.file.get());
  oracle.file->BuildImpactOrders([&](TermId t, const Posting& p) {
    return oracle.model->Weight(t, p);
  });
  oracle.fragmentation = Fragmentation::Build(*oracle.file, policy);
  return oracle;
}

/// Differential check of one strategy through the coordinator.
///
/// Safe strategies: the positional score sequence is bit-identical to the
/// oracle's run. Doc ids match too, except at ranks whose score equals
/// the returned n-th score — a later shard's threshold-seeded max-score
/// may strictly prune a candidate that only *ties* the global n-th, so an
/// equal-scored incumbent legally keeps the slot (ranks scoring above the
/// n-th can never be pruned: their bound exceeds any seeded threshold).
///
/// fagin_nra: its reported scores are drain-order partial lower bounds —
/// partition-dependent — so only set-level membership in the exact top-N
/// is checked. Unsafe strategies prune differently per shard by design;
/// they are held to the universal liveness invariant only.
void CheckShardedStrategy(const std::shared_ptr<const ShardedSnapshot>& snap,
                          const Oracle& oracle, PhysicalStrategy s,
                          const Query& q) {
  ShardCoordinator::Options copts;
  copts.fragmentation = &oracle.fragmentation;
  auto actual =
      ShardCoordinator::Execute(snap, s, q, kTopN, ExecOptions{}, copts);
  ASSERT_TRUE(actual.ok()) << StrategyName(s) << ": "
                           << actual.status().ToString();
  const std::vector<ScoredDoc>& got = actual.ValueOrDie().items;

  // Universal invariant: only live documents surface.
  for (const ScoredDoc& sd : got) {
    ASSERT_NE(oracle.to_oracle.find(sd.doc), oracle.to_oracle.end())
        << StrategyName(s) << " returned dead/unknown doc " << sd.doc;
  }
  if (!IsSafeStrategy(s)) return;

  auto expected = StrategyRegistry::Global().Execute(s, oracle.context(), q,
                                                     kTopN, ExecOptions{});
  ASSERT_TRUE(expected.ok()) << StrategyName(s) << ": "
                             << expected.status().ToString();
  const std::vector<ScoredDoc>& ref = expected.ValueOrDie().items;

  if (s == PhysicalStrategy::kFaginNRA) {
    const std::vector<ScoredDoc> truth =
        ExactTopN(*oracle.file, *oracle.model, q, kTopN);
    ASSERT_EQ(got.size(), truth.size()) << StrategyName(s);
    if (truth.empty()) return;
    const std::vector<double> truth_scores =
        AccumulateScores(*oracle.file, *oracle.model, q);
    for (const ScoredDoc& sd : got) {
      const DocId oid = oracle.to_oracle.at(sd.doc);
      EXPECT_GE(truth_scores[oid] + 1e-9, truth.back().score)
          << StrategyName(s) << " doc " << sd.doc
          << " is outside the exact top-" << kTopN;
    }
    return;
  }

  ASSERT_EQ(ref.size(), got.size()) << StrategyName(s);
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].score, ref[i].score) << StrategyName(s) << " rank " << i;
  }
  const bool full = got.size() == kTopN;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (full && ref[i].score == ref.back().score) continue;  // n-th-score tie
    EXPECT_EQ(oracle.to_oracle.at(got[i].doc), ref[i].doc)
        << StrategyName(s) << " rank " << i;
  }
}

void RunShardedIteration(uint64_t seed, size_t num_shards, int iteration) {
  SCOPED_TRACE("sharded fuzz seed " + std::to_string(seed) + ", shards " +
               std::to_string(num_shards));
  Rng rng(seed);

  const std::string dir = std::string(::testing::TempDir()) +
                          "/lifecycle_fuzz_sharded_" +
                          std::to_string(num_shards) + "_" +
                          std::to_string(iteration);
  std::filesystem::remove_all(dir);
  ShardedCatalog::Options options;
  options.num_shards = num_shards;
  options.shard.num_terms = kVocab;
  options.shard.dir = dir;
  auto created = ShardedCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedCatalog> catalog = std::move(created).ValueOrDie();
  ShardedShadow shadow(num_shards);
  const FragmentationPolicy frag_policy;

  // Seed corpus (routing from empty is round-robin — the shadow asserts
  // every add lands on the owning shard's dense tail).
  for (int i = 0; i < 60; ++i) {
    DocTerms doc = RandomDoc(rng);
    auto id = catalog->AddDocument(doc);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    shadow.Add(id.ValueOrDie(), std::move(doc));
    if (::testing::Test::HasFatalFailure()) return;
  }

  const int ops = 30;
  for (int op = 0; op < ops; ++op) {
    const uint64_t pick = rng.Uniform(100);
    if (pick < 25) {  // AddDocument
      DocTerms doc = RandomDoc(rng);
      auto id = catalog->AddDocument(doc);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      shadow.Add(id.ValueOrDie(), std::move(doc));
    } else if (pick < 40) {  // DeleteDocument
      const std::vector<DocId> live = shadow.LiveGlobalIds();
      if (!live.empty()) {
        const DocId victim = live[rng.Uniform(live.size())];
        ASSERT_TRUE(catalog->DeleteDocument(victim).ok());
        shadow.Delete(victim);
      }
    } else if (pick < 52) {  // UpdateDocument (upsert)
      const std::vector<DocId> live = shadow.LiveGlobalIds();
      if (!live.empty()) {
        const DocId victim = live[rng.Uniform(live.size())];
        DocTerms doc = RandomDoc(rng);
        auto id = catalog->UpdateDocument(victim, doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        shadow.Delete(victim);
        shadow.Add(id.ValueOrDie(), std::move(doc));
        EXPECT_FALSE(catalog->UpdateDocument(victim, RandomDoc(rng)).ok());
      }
    } else if (pick < 64) {  // per-shard Flush
      const size_t s = rng.Uniform(num_shards);
      ASSERT_TRUE(catalog->Flush(s).ok());
      shadow.shards[s].Flush();
    } else if (pick < 74) {  // per-shard Merge
      const size_t s = rng.Uniform(num_shards);
      auto merged = catalog->Merge(s);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      shadow.shards[s].MergeAll();
    } else if (pick < 80) {  // FlushAll
      ASSERT_TRUE(catalog->FlushAll().ok());
      for (Shadow& sh : shadow.shards) sh.Flush();
    } else {  // differential check round
      const auto snap = catalog->Snapshot();
      const Oracle oracle = BuildShardedOracle(shadow, frag_policy);
      ASSERT_EQ(snap->LiveDocIds(), oracle.to_catalog);
      ASSERT_EQ(snap->stats().num_live_docs, oracle.file->num_docs());
      ASSERT_EQ(snap->stats().total_live_tokens, oracle.file->total_tokens());
      for (TermId t = 0; t < kVocab; ++t) {
        ASSERT_EQ(snap->stats().df[t], oracle.file->DocFrequency(t))
            << "term " << t;
      }
      for (const Query& q : RandomQueries(rng, 2)) {
        for (PhysicalStrategy s : AllStrategies()) {
          CheckShardedStrategy(snap, oracle, s, q);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }

  // Final sweep before and after an all-shard compaction.
  for (const bool compact : {false, true}) {
    if (compact) {
      ASSERT_TRUE(catalog->FlushAll().ok());
      for (Shadow& sh : shadow.shards) sh.Flush();
      auto merged = catalog->MergeAll();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      for (Shadow& sh : shadow.shards) sh.MergeAll();
    }
    const auto snap = catalog->Snapshot();
    const Oracle oracle = BuildShardedOracle(shadow, frag_policy);
    ASSERT_EQ(snap->LiveDocIds(), oracle.to_catalog);
    for (const Query& q : RandomQueries(rng, 2)) {
      for (PhysicalStrategy s : AllStrategies()) {
        CheckShardedStrategy(snap, oracle, s, q);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  // Durability: everything is flushed + merged — a reopened catalog must
  // serve the same live set and statistics.
  const std::vector<DocId> live_before = shadow.LiveGlobalIds();
  const auto stats_before = catalog->Snapshot()->stats();
  catalog.reset();
  auto reopened = ShardedCatalog::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto snap = reopened.ValueOrDie()->Snapshot();
  EXPECT_EQ(snap->LiveDocIds(), live_before);
  EXPECT_EQ(snap->stats().num_live_docs, stats_before.num_live_docs);
  EXPECT_EQ(snap->stats().df, stats_before.df);

  std::filesystem::remove_all(dir);
}

TEST(LifecycleFuzzTest, ShardedLifecyclesMatchSingleIndexOracle) {
  const int iterations = Iterations();
  for (int i = 0; i < iterations; ++i) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      RunShardedIteration(
          /*seed=*/0xBEE5'0000ull + static_cast<uint64_t>(i) * 16 + shards,
          shards, i);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// WAL kill-point matrix: a seeded op stream against a durable catalog,
// "crashed" at every distinct point in the write path's commit protocol
// and reopened. The recovered catalog must hold *exactly* the
// acknowledged writes — every acknowledged mutation present, no torn or
// un-acknowledged suffix visible — and must keep absorbing new writes.
//
//   kTornRecord      process died mid-append: a half-written record sits
//                    at the WAL tail (replay truncates it in place).
//   kRotatedUnlinked died after a flush durably rotated WAL + manifest
//                    but before the old WAL was unlinked (recovery must
//                    follow the manifest, not the stray file).
//   kManifestStale   died after the flushed segment was fsync'd but
//                    before the manifest switch: orphaned segment files,
//                    stale manifest, intact WAL.
//   kCleanStop       orderly close (control row of the matrix).

enum class KillPoint {
  kTornRecord = 0,
  kRotatedUnlinked = 1,
  kManifestStale = 2,
  kCleanStop = 3,
};

/// Holds a recovered (or live) catalog to the shadow's acknowledged
/// writes: identical live-id set, statistics, and per-term document
/// frequencies (the content check — a lost or resurrected document
/// shifts some term's df).
void CheckCatalogMatchesShadow(IndexCatalog& catalog, const Shadow& shadow) {
  const Oracle oracle = BuildOracle(shadow, FragmentationPolicy{});
  const auto state = catalog.Snapshot();
  ASSERT_EQ(state->LiveDocIds(), oracle.to_catalog);
  ASSERT_EQ(state->stats().num_live_docs, oracle.file->num_docs());
  ASSERT_EQ(state->stats().total_live_tokens, oracle.file->total_tokens());
  for (TermId t = 0; t < kVocab; ++t) {
    ASSERT_EQ(state->stats().df[t], oracle.file->DocFrequency(t))
        << "term " << t;
  }
}

void RunKillPointIteration(uint64_t seed, int iteration) {
  SCOPED_TRACE("kill-point seed " + std::to_string(seed));
  Rng rng(seed);

  const std::string dir = std::string(::testing::TempDir()) +
                          "/lifecycle_fuzz_wal_" + std::to_string(iteration);
  std::filesystem::remove_all(dir);
  auto fail_point = std::make_shared<std::string>();
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  options.dir = dir;
  options.fault_injector = [fail_point](const std::string& point) {
    if (point == *fail_point) {
      return Status::Internal("injected crash at " + point);
    }
    return Status::OK();
  };
  auto created = IndexCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<IndexCatalog> catalog = std::move(created).ValueOrDie();
  Shadow shadow;

  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    // Mutation burst: every *acknowledged* op lands in the shadow; the
    // shadow never sees an op the catalog rejected.
    const int burst = 8 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < burst; ++i) {
      const uint64_t pick = rng.Uniform(100);
      if (pick < 50) {  // AddDocument
        DocTerms doc = RandomDoc(rng);
        auto id = catalog->AddDocument(doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(id.ValueOrDie(), shadow.slots.size());
        shadow.Add(std::move(doc));
      } else if (pick < 70) {  // DeleteDocument
        const std::vector<DocId> live = shadow.LiveIds();
        if (!live.empty()) {
          const DocId victim = live[rng.Uniform(live.size())];
          ASSERT_TRUE(catalog->DeleteDocument(victim).ok());
          shadow.Delete(victim);
        }
      } else if (pick < 88) {  // UpdateDocument (upsert)
        const std::vector<DocId> live = shadow.LiveIds();
        if (!live.empty()) {
          const DocId victim = live[rng.Uniform(live.size())];
          DocTerms doc = RandomDoc(rng);
          auto id = catalog->UpdateDocument(victim, doc);
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          ASSERT_EQ(id.ValueOrDie(), shadow.slots.size());
          shadow.Update(victim, std::move(doc));
        }
      } else {  // committed Flush (bounds replay for later rounds)
        ASSERT_TRUE(catalog->Flush().ok());
      }
    }

    // Crash at one kill point, then reopen.
    const KillPoint kill = static_cast<KillPoint>(rng.Uniform(4));
    switch (kill) {
      case KillPoint::kTornRecord: {
        catalog.reset();  // the "crash": all in-memory state gone
        auto manifest = ReadManifest(dir);
        ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
        ASSERT_GT(manifest.ValueOrDie().wal_seq, 0u);
        const std::string wal_path =
            dir + "/" + WalFileName(manifest.ValueOrDie().wal_seq);
        std::ofstream out(wal_path,
                          std::ios::binary | std::ios::app);
        ASSERT_TRUE(out.good());
        // A record header promising 64 payload bytes, then the torn
        // prefix the "crash" left behind.
        const char torn[] = {0x40, 0x00, 0x00, 0x00,
                             0x13, 0x57, 0x7e, 0x21, 0x01, 'x', 'y'};
        out.write(torn, sizeof(torn));
        out.close();
        break;
      }
      case KillPoint::kRotatedUnlinked: {
        // The rotated WAL and switched manifest are durable, so if the
        // memtable was non-empty this flush *committed* despite the
        // in-memory refusal — recovery follows the manifest either way.
        *fail_point = "flush:wal-rotated";
        const bool reaches_fault =
            catalog->Snapshot()->memtable().num_docs() > 0;
        const Status flush = catalog->Flush();
        EXPECT_EQ(flush.ok(), !reaches_fault) << flush.ToString();
        *fail_point = "";
        catalog.reset();
        break;
      }
      case KillPoint::kManifestStale: {
        // Segment files fsync'd, manifest never switched: the flush did
        // NOT commit; recovery must ignore the orphans and replay the
        // intact WAL.
        *fail_point = "flush:segment-written";
        const bool reaches_fault =
            catalog->Snapshot()->memtable().num_docs() > 0;
        const Status flush = catalog->Flush();
        EXPECT_EQ(flush.ok(), !reaches_fault) << flush.ToString();
        *fail_point = "";
        catalog.reset();
        break;
      }
      case KillPoint::kCleanStop:
        catalog.reset();
        break;
    }

    auto reopened = IndexCatalog::Open(options);
    ASSERT_TRUE(reopened.ok()) << "round " << round << ": "
                               << reopened.status().ToString();
    catalog = std::move(reopened).ValueOrDie();
    CheckCatalogMatchesShadow(*catalog, shadow);
    if (::testing::Test::HasFatalFailure()) return;
    // The next round's burst doubles as the "recovered catalog keeps
    // absorbing writes" check.
  }

  std::filesystem::remove_all(dir);
}

TEST(LifecycleFuzzTest, WalKillPointMatrixRecoversAcknowledgedWrites) {
  const int iterations = Iterations();
  for (int i = 0; i < iterations; ++i) {
    RunKillPointIteration(/*seed=*/0x3A1'0000ull + static_cast<uint64_t>(i),
                          i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Background-maintenance interleaving: the same single-threaded op
// stream, with background flush/merge jobs firing at arbitrary points
// between ops, must land on exactly the live set the single-threaded
// shadow replay predicts — background maintenance is invisible to the
// logical document space.
//
// Two rounds keep the shadow's id mapping sound under nondeterministic
// job timing: flush is id-stable, so the mixed round (adds + deletes +
// upserts) runs with merges off; the merge round is append-only, where
// compaction is the identity mapping because no slot is ever dead.

void RunBackgroundInterleavingRound(uint64_t seed, bool with_merges,
                                    int iteration) {
  SCOPED_TRACE("background round seed " + std::to_string(seed) +
               (with_merges ? " (append-only, merges on)"
                            : " (mixed ops, flush only)"));
  Rng rng(seed);

  const std::string dir = std::string(::testing::TempDir()) +
                          "/lifecycle_fuzz_bg_" +
                          (with_merges ? "merge_" : "flush_") +
                          std::to_string(iteration);
  std::filesystem::remove_all(dir);
  IndexCatalog::Options options;
  options.num_terms = kVocab;
  options.dir = dir;
  auto created = IndexCatalog::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<IndexCatalog> catalog = std::move(created).ValueOrDie();
  Shadow shadow;

  {
    MaintenancePolicy policy;
    policy.flush_trigger_docs = 6;
    policy.merge_trigger_segments = with_merges ? 3 : 0;
    policy.merge_fanin = 2;
    BackgroundMaintenance maintenance(catalog.get(), policy);

    const int ops = 120;
    for (int op = 0; op < ops; ++op) {
      const uint64_t pick = rng.Uniform(100);
      if (with_merges || pick < 60) {  // AddDocument
        DocTerms doc = RandomDoc(rng);
        auto id = catalog->AddDocument(doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(id.ValueOrDie(), shadow.slots.size());
        shadow.Add(std::move(doc));
      } else if (pick < 80) {  // DeleteDocument
        const std::vector<DocId> live = shadow.LiveIds();
        if (!live.empty()) {
          const DocId victim = live[rng.Uniform(live.size())];
          ASSERT_TRUE(catalog->DeleteDocument(victim).ok());
          shadow.Delete(victim);
        }
      } else {  // UpdateDocument (upsert)
        const std::vector<DocId> live = shadow.LiveIds();
        if (!live.empty()) {
          const DocId victim = live[rng.Uniform(live.size())];
          DocTerms doc = RandomDoc(rng);
          auto id = catalog->UpdateDocument(victim, doc);
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          ASSERT_EQ(id.ValueOrDie(), shadow.slots.size());
          shadow.Update(victim, std::move(doc));
        }
      }
    }
    maintenance.WaitIdle();
    EXPECT_TRUE(maintenance.TakeLastError().ok());

    CheckCatalogMatchesShadow(*catalog, shadow);
    if (::testing::Test::HasFatalFailure()) return;
    if (with_merges) {
      // The maintenance loop actually did its job: the segment count
      // settled below the merge trigger.
      EXPECT_LT(catalog->Snapshot()->segments().size(),
                policy.merge_trigger_segments);
    }
    // Maintenance detaches (observer cleared, in-flight job drained)
    // before the catalog closes.
  }

  // Everything background maintenance published — and everything still
  // sitting in the memtable — survives a reopen via the WAL.
  catalog.reset();
  auto reopened = IndexCatalog::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  catalog = std::move(reopened).ValueOrDie();
  CheckCatalogMatchesShadow(*catalog, shadow);

  std::filesystem::remove_all(dir);
}

TEST(LifecycleFuzzTest, BackgroundMaintenanceMatchesSingleThreadedOracle) {
  const int iterations = Iterations();
  for (int i = 0; i < iterations; ++i) {
    for (const bool with_merges : {false, true}) {
      RunBackgroundInterleavingRound(
          /*seed=*/0xB6'0000ull + static_cast<uint64_t>(i) * 2 + with_merges,
          with_merges, i);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace moa
