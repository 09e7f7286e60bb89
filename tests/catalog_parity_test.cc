// Acceptance suite for the index lifecycle: top-N retrieval over a
// catalog built *incrementally* (adds, deletes, flushes, merges) must be
// bit-identical to retrieval over a fresh single in-memory index of the
// surviving documents — sequentially and under SearchBatch concurrency.
//
// Doc-id mapping: catalog ids are dense over *slots* (tombstoned docs keep
// their slot until a merge compacts them), so the comparison maps the
// reference's dense id k to the catalog id of the k-th survivor. The test
// replays the documented id rules independently and cross-checks the
// resulting mapping against the catalog (LiveDocIds, per-doc lengths,
// df/cf statistics) before trusting it. A second database runs the same
// lifecycle plus a final flush+merge, after which the id spaces coincide
// and results must match with *no* mapping at all.
//
// Since the fragment/Fagin/probabilistic families moved onto the
// PostingSource API, *every* registered strategy serves the catalog: the
// parity sweep below runs AllStrategies() (fragment strategies against a
// live-statistics fragmentation that must equal the fresh index's). Also
// here: tombstone visibility through every lifecycle stage, Explain's
// storage line, and the concurrency tests (mutations / attach / detach
// racing SearchBatch — the TSan targets).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "exec/registry.h"
#include "ir/query_gen.h"
#include "optimizer/cardinality.h"
#include "optimizer/strategy_planner.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::ForcedOptions;
using testutil::Requests;

constexpr uint32_t kSeedDocs = 300;
constexpr uint32_t kVocab = 700;

DatabaseConfig BaseConfig(const std::string& catalog_dir) {
  DatabaseConfig config;
  config.collection.num_docs = kSeedDocs;
  config.collection.vocabulary = kVocab;
  config.collection.mean_doc_length = 60;
  config.collection.seed = 991133;
  config.fragmentation.small_volume_fraction = 0.05;
  config.catalog_dir = catalog_dir;
  return config;
}

/// Transposes an inverted file into per-document compositions.
std::vector<DocTerms> Transpose(const InvertedFile& file) {
  std::vector<DocTerms> docs(file.num_docs());
  for (TermId t = 0; t < file.num_terms(); ++t) {
    const PostingList& list = file.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      docs[list[i].doc].emplace_back(t, list[i].tf);
    }
  }
  return docs;
}

/// Deterministic synthetic document (8..19 distinct terms).
DocTerms SynthDoc(Rng& rng) {
  std::map<TermId, uint32_t> terms;
  const size_t want = 8 + rng.Uniform(12);
  while (terms.size() < want) {
    const TermId t = static_cast<TermId>(rng.Uniform(kVocab));
    const uint32_t tf = 1 + static_cast<uint32_t>(rng.Uniform(4));
    terms.emplace(t, tf);
  }
  return DocTerms(terms.begin(), terms.end());
}

/// Test-side replay of the documented doc-id rules: slots are dense in
/// insertion order, deletes tombstone in place, flush is id-stable, a
/// full merge drops dead *flushed* slots and compacts.
struct IdSpaceReplay {
  struct Slot {
    size_t original;  ///< index into the all-documents list
    bool alive = true;
  };
  std::vector<Slot> slots;
  size_t flushed = 0;  ///< slots currently living in segments

  void Add(size_t original) { slots.push_back(Slot{original, true}); }
  void Delete(DocId id) { slots[id].alive = false; }
  void Flush() { flushed = slots.size(); }
  void MergeAll() {
    std::vector<Slot> next;
    for (size_t i = 0; i < flushed; ++i) {
      if (slots[i].alive) next.push_back(slots[i]);
    }
    const size_t kept = next.size();
    next.insert(next.end(), slots.begin() + static_cast<ptrdiff_t>(flushed),
                slots.end());
    slots = std::move(next);
    flushed = kept;
  }

  /// Survivors in id order: (catalog id, original doc index).
  std::vector<std::pair<DocId, size_t>> Survivors() const {
    std::vector<std::pair<DocId, size_t>> out;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].alive) out.emplace_back(static_cast<DocId>(i),
                                           slots[i].original);
    }
    return out;
  }
};

/// Fresh single in-memory index of one document list (the reference).
/// Carries fragmentation + a sparse cache so the fragment strategies run
/// against it too.
struct Reference {
  std::unique_ptr<InvertedFile> file;
  std::unique_ptr<ScoringModel> model;
  Fragmentation fragmentation;
  std::unique_ptr<SparseIndexCache> sparse_cache =
      std::make_unique<SparseIndexCache>();

  ExecContext context() const {
    ExecContext ctx;
    ctx.file = file.get();
    ctx.model = model.get();
    ctx.fragmentation = &fragmentation;
    ctx.sparse_cache = sparse_cache.get();
    return ctx;
  }
};

Reference BuildReference(const std::vector<DocTerms>& docs) {
  Reference ref;
  InvertedFileBuilder builder(kVocab);
  for (DocId d = 0; d < docs.size(); ++d) {
    EXPECT_TRUE(builder.AddDocument(d, docs[d]).ok());
  }
  ref.file = std::make_unique<InvertedFile>(builder.Build());
  ref.model = MakeBm25(ref.file.get());
  ref.file->BuildImpactOrders(
      [&](TermId t, const Posting& p) { return ref.model->Weight(t, p); });
  ref.fragmentation =
      Fragmentation::Build(*ref.file, BaseConfig("").fragmentation);
  return ref;
}

/// One lifecycle instance: the database, the replayed id space, and the
/// list of every document ever added (seed collection + synthetic).
struct Lifecycle {
  std::unique_ptr<MmDatabase> db;
  std::vector<DocTerms> all_docs;
  IdSpaceReplay ids;

  void Add(const DocTerms& doc) {
    all_docs.push_back(doc);
    auto id = db->AddDocument(doc);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(id.ValueOrDie(), ids.slots.size());
    ids.Add(all_docs.size() - 1);
  }
  void Delete(DocId id) {
    ASSERT_TRUE(db->DeleteDocument(id).ok());
    ids.Delete(id);
  }
  void Flush() {
    ASSERT_TRUE(db->Flush().ok());
    ids.Flush();
  }
  void MergeAll() {
    auto merged = db->Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ids.MergeAll();
  }
};

/// Runs the shared lifecycle script: deletes in the memtable, two
/// flushes, deletes in segments and memtable, one merge, then a trailing
/// unflushed batch with one more delete on each side of the merge point.
void RunScript(Lifecycle& lc) {
  Rng rng(771122);
  lc.Delete(3);
  lc.Delete(57);
  lc.Delete(123);
  lc.Flush();  // segment 1: the seeded collection, 3 tombstones
  for (int i = 0; i < 80; ++i) lc.Add(SynthDoc(rng));
  lc.Delete(10);   // segment-1 doc
  lc.Delete(330);  // memtable doc
  lc.Flush();      // segment 2
  for (int i = 0; i < 40; ++i) lc.Add(SynthDoc(rng));
  lc.Delete(381);  // memtable doc
  lc.Delete(310);  // segment-2 doc
  lc.MergeAll();   // drops 3,57,123,10 + 330,310; compacts ids
  for (int i = 0; i < 10; ++i) lc.Add(SynthDoc(rng));
  lc.Delete(5);    // merged-segment doc (post-compaction id)
  lc.Delete(static_cast<DocId>(lc.ids.slots.size() - 2));  // memtable doc
}

class CatalogParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Mixed-state database: merged segment + memtable, tombstones in both.
    mixed_ = new Lifecycle();
    BuildOne(*mixed_, "mixed", /*compact=*/false);
    // Compact database: same script + final flush and merge — the id
    // space collapses onto the reference's dense ids.
    compact_ = new Lifecycle();
    BuildOne(*compact_, "compact", /*compact=*/true);

    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 16;
    qconfig.terms_per_query = 4;
    qconfig.distribution = QueryTermDistribution::kMixed;
    qconfig.seed = 5150;
    queries_ = new std::vector<Query>(
        GenerateQueries(mixed_->db->collection(), qconfig).ValueOrDie());

    // The reference index holds exactly the surviving documents, in
    // insertion order (both lifecycles share the script, so they agree).
    std::vector<DocTerms> survivors;
    for (const auto& [id, original] : mixed_->ids.Survivors()) {
      survivors.push_back(mixed_->all_docs[original]);
    }
    reference_ = new Reference(BuildReference(survivors));
  }

  static void BuildOne(Lifecycle& lc, const char* tag, bool compact) {
    const std::string dir = std::string(::testing::TempDir()) +
                            "/catalog_parity_" + tag;
    std::filesystem::remove_all(dir);
    auto db = MmDatabase::Open(BaseConfig(dir));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    lc.db = std::move(db).ValueOrDie();
    lc.all_docs = Transpose(lc.db->file());
    for (size_t i = 0; i < lc.all_docs.size(); ++i) lc.ids.Add(i);
    RunScript(lc);
    if (compact) {
      lc.Flush();
      lc.MergeAll();
    }
    ASSERT_TRUE(lc.db->is_dynamic());
  }

  /// Catalog id of the reference's dense id k, from the replay.
  static std::vector<DocId> Mapping(const Lifecycle& lc) {
    std::vector<DocId> map;
    for (const auto& [id, original] : lc.ids.Survivors()) map.push_back(id);
    return map;
  }

  static Lifecycle* mixed_;
  static Lifecycle* compact_;
  static Reference* reference_;
  static std::vector<Query>* queries_;
};

Lifecycle* CatalogParityTest::mixed_ = nullptr;
Lifecycle* CatalogParityTest::compact_ = nullptr;
Reference* CatalogParityTest::reference_ = nullptr;
std::vector<Query>* CatalogParityTest::queries_ = nullptr;

TEST_F(CatalogParityTest, ReplayedMappingAgreesWithCatalog) {
  for (Lifecycle* lc : {mixed_, compact_}) {
    const std::vector<DocId> map = Mapping(*lc);
    const auto state = lc->db->catalog()->Snapshot();
    // The catalog's own survivor enumeration, lengths and statistics must
    // agree with the independently replayed mapping and the reference.
    ASSERT_EQ(state->LiveDocIds(), map);
    ASSERT_EQ(state->stats().num_live_docs, reference_->file->num_docs());
    ASSERT_EQ(state->stats().total_live_tokens,
              reference_->file->total_tokens());
    for (size_t k = 0; k < map.size(); ++k) {
      ASSERT_EQ(state->DocLength(map[k]),
                reference_->file->DocLength(static_cast<DocId>(k)));
    }
    for (TermId t = 0; t < kVocab; ++t) {
      ASSERT_EQ(state->stats().df[t], reference_->file->DocFrequency(t));
    }
  }
  // The compact lifecycle's id space coincides with the reference's.
  const std::vector<DocId> compact_map = Mapping(*compact_);
  for (size_t k = 0; k < compact_map.size(); ++k) {
    ASSERT_EQ(compact_map[k], static_cast<DocId>(k));
  }
}

void ExpectMappedParity(const TopNResult& expected, const TopNResult& actual,
                        const std::vector<DocId>& map, const char* label) {
  ASSERT_EQ(expected.items.size(), actual.items.size()) << label;
  for (size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(map[expected.items[i].doc], actual.items[i].doc)
        << label << " rank " << i;
    // Bit-identical, not approximately equal: identical float ops in
    // identical order on both storage spines.
    EXPECT_EQ(expected.items[i].score, actual.items[i].score)
        << label << " rank " << i;
  }
}

TEST_F(CatalogParityTest, EveryStrategyMatchesFreshIndexBitForBit) {
  const ExecContext ref_ctx = reference_->context();
  const std::vector<DocId> mixed_map = Mapping(*mixed_);
  for (PhysicalStrategy s : AllStrategies()) {
    for (const Query& q : *queries_) {
      auto expected = StrategyRegistry::Global().Execute(s, ref_ctx, q, 10,
                                                         ExecOptions{});
      ASSERT_TRUE(expected.ok()) << StrategyName(s);
      auto over_mixed = mixed_->db->Execute(s, q, 10);
      ASSERT_TRUE(over_mixed.ok())
          << StrategyName(s) << ": " << over_mixed.status().ToString();
      ExpectMappedParity(expected.ValueOrDie(), over_mixed.ValueOrDie(),
                         mixed_map, StrategyName(s));

      // Compact catalog: ids coincide — compare without any mapping.
      auto over_compact = compact_->db->Execute(s, q, 10);
      ASSERT_TRUE(over_compact.ok()) << StrategyName(s);
      ASSERT_EQ(expected.ValueOrDie().items.size(),
                over_compact.ValueOrDie().items.size());
      for (size_t i = 0; i < expected.ValueOrDie().items.size(); ++i) {
        EXPECT_EQ(expected.ValueOrDie().items[i],
                  over_compact.ValueOrDie().items[i])
            << StrategyName(s) << " rank " << i;
      }
    }
  }
}

TEST_F(CatalogParityTest, DynamicSearchAcceptsEveryRegisteredStrategy) {
  // The strategy×storage matrix has no Unimplemented cells left: forcing
  // any registered strategy through the dynamic Search path must execute
  // (and agree with the direct registry execution over the same
  // snapshot).
  for (PhysicalStrategy s : AllStrategies()) {
    auto r =
        mixed_->db->Search(QueryRequest{(*queries_)[0], 10, ForcedOptions(s)});
    ASSERT_TRUE(r.ok()) << StrategyName(s) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().strategy, s);
    auto direct = mixed_->db->Execute(s, (*queries_)[0], 10);
    ASSERT_TRUE(direct.ok()) << StrategyName(s);
    ASSERT_EQ(r.ValueOrDie().top.items.size(),
              direct.ValueOrDie().items.size());
    for (size_t i = 0; i < direct.ValueOrDie().items.size(); ++i) {
      EXPECT_EQ(r.ValueOrDie().top.items[i], direct.ValueOrDie().items[i])
          << StrategyName(s) << " rank " << i;
    }
  }
}

TEST_F(CatalogParityTest, SearchBatchOverCatalogMatchesSequential) {
  const std::vector<DocId> map = Mapping(*mixed_);
  const ExecContext ref_ctx = reference_->context();
  for (PhysicalStrategy s : AllStrategies()) {
    auto batch =
        mixed_->db->SearchBatch(Requests(*queries_, 10, ForcedOptions(s)), 4);
    ASSERT_TRUE(batch.ok()) << StrategyName(s) << ": "
                            << batch.status().ToString();
    ASSERT_EQ(batch.ValueOrDie().results.size(), queries_->size());
    for (size_t i = 0; i < queries_->size(); ++i) {
      auto expected = StrategyRegistry::Global().Execute(
          s, ref_ctx, (*queries_)[i], 10, ExecOptions{});
      ASSERT_TRUE(expected.ok());
      ExpectMappedParity(expected.ValueOrDie(),
                         batch.ValueOrDie().results[i].top, map,
                         StrategyName(s));
    }
  }
}

TEST_F(CatalogParityTest, DefaultSearchAndGroundTruthServeTheCatalog) {
  const std::vector<DocId> map = Mapping(*mixed_);
  const ExecContext ref_ctx = reference_->context();
  for (const Query& q : *queries_) {
    // Unforced dynamic Search routes through the cost-based planner: a
    // safe strategy (default quality target 1.0), chosen per query from
    // the snapshot's live statistics — no hard-coded default.
    auto r = mixed_->db->Search(QueryRequest{q, 10});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().planned);
    EXPECT_TRUE(IsSafeStrategy(r.ValueOrDie().strategy))
        << StrategyName(r.ValueOrDie().strategy);
    EXPECT_EQ(r.ValueOrDie().predicted_quality, 1.0);
    // Whatever the planner chose executes over the catalog bit-identical
    // to the same strategy over a fresh index of the survivors.
    auto expected = StrategyRegistry::Global().Execute(
        r.ValueOrDie().strategy, ref_ctx, q, 10, ExecOptions{});
    ASSERT_TRUE(expected.ok());
    ExpectMappedParity(expected.ValueOrDie(), r.ValueOrDie().top, map,
                       "default search");

    // Ground truth follows the live collection too.
    const std::vector<ScoredDoc> truth = mixed_->db->GroundTruth(q, 10);
    const std::vector<ScoredDoc> ref_truth =
        ExactTopN(*reference_->file, *reference_->model, q, 10);
    ASSERT_EQ(truth.size(), ref_truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(truth[i].doc, map[ref_truth[i].doc]);
      EXPECT_EQ(truth[i].score, ref_truth[i].score);
    }
  }
}

TEST_F(CatalogParityTest, TombstonesAreInvisibleThroughEveryStage) {
  // A probe document built from a term nobody else uses, tracked through
  // memtable -> segment -> merge.
  const std::string dir =
      std::string(::testing::TempDir()) + "/catalog_parity_tombstone";
  std::filesystem::remove_all(dir);
  auto opened = MmDatabase::Open(BaseConfig(dir));
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();

  TermId unused = kVocab;
  for (TermId t = kVocab; t-- > 0;) {
    if (db.file().DocFrequency(t) == 0) {
      unused = t;
      break;
    }
  }
  ASSERT_LT(unused, kVocab) << "collection uses the whole vocabulary";
  const Query probe{{unused}};

  auto added = db.AddDocument({{unused, 3}, {0, 1}});
  ASSERT_TRUE(added.ok());
  const DocId id = added.ValueOrDie();
  auto hit = db.Execute(PhysicalStrategy::kHeap, probe, 5);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.ValueOrDie().items.size(), 1u);
  EXPECT_EQ(hit.ValueOrDie().items[0].doc, id);

  // Memtable tombstone: gone immediately.
  ASSERT_TRUE(db.DeleteDocument(id).ok());
  EXPECT_TRUE(
      db.Execute(PhysicalStrategy::kHeap, probe, 5).ValueOrDie().items
          .empty());
  EXPECT_EQ(db.GroundTruthScores(probe)[id], 0.0);

  // Still gone after the tombstone rides a flush into a segment...
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_TRUE(
      db.Execute(PhysicalStrategy::kHeap, probe, 5).ValueOrDie().items
          .empty());
  // ...and after the merge physically drops it.
  ASSERT_TRUE(db.Merge().ok());
  EXPECT_TRUE(
      db.Execute(PhysicalStrategy::kHeap, probe, 5).ValueOrDie().items
          .empty());
  EXPECT_EQ(db.catalog()->Snapshot()->stats().df[unused], 0u);
}

TEST_F(CatalogParityTest, ExplainReportsStorageComposition) {
  const QueryRequest request{(*queries_)[0]};
  const auto report = mixed_->db->ExplainSearch(request);
  ASSERT_TRUE(report.ok());
  const std::string text = report.ValueOrDie().ToString();
  EXPECT_NE(text.find("storage: catalog"), std::string::npos) << text;
  EXPECT_NE(text.find("memtable("), std::string::npos);
  EXPECT_NE(text.find("seg "), std::string::npos);
  EXPECT_NE(text.find("merged cursor"), std::string::npos);

  // Static databases report their storage too.
  auto static_db = MmDatabase::Open(BaseConfig(""));
  ASSERT_TRUE(static_db.ok());
  const auto static_report = static_db.ValueOrDie()->ExplainSearch(request);
  ASSERT_TRUE(static_report.ok());
  EXPECT_NE(static_report.ValueOrDie().ToString().find(
                "storage: in-memory inverted file"),
            std::string::npos);
}

TEST_F(CatalogParityTest, ReopenedDatabaseRecoversDurableCatalog) {
  // A second process pointed at the same catalog_dir must recover the
  // durable state on its first mutation — not refuse the directory, and
  // not re-seed (which would duplicate every flushed document).
  const std::string dir =
      std::string(::testing::TempDir()) + "/catalog_parity_recover";
  std::filesystem::remove_all(dir);
  DatabaseConfig config = BaseConfig(dir);
  config.collection.num_docs = 50;
  uint64_t flushed_space = 0;
  {
    auto db = MmDatabase::Open(config);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.ValueOrDie()->AddDocument({{1, 2}}).ok());  // seeds 50+1
    ASSERT_TRUE(db.ValueOrDie()->DeleteDocument(7).ok());
    ASSERT_TRUE(db.ValueOrDie()->Flush().ok());
    flushed_space = db.ValueOrDie()->catalog()->Snapshot()->doc_space();
    ASSERT_EQ(flushed_space, 51u);
  }
  auto reopened = MmDatabase::Open(config);
  ASSERT_TRUE(reopened.ok());
  auto id = reopened.ValueOrDie()->AddDocument({{2, 3}});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.ValueOrDie(), flushed_space);  // continues the id space
  const auto state = reopened.ValueOrDie()->catalog()->Snapshot();
  EXPECT_EQ(state->stats().num_live_docs, 51u);  // 50 seeded - 1 + 2 added
  EXPECT_TRUE(state->IsDeleted(7));              // tombstone survived
}

TEST_F(CatalogParityTest, MutationsDuringSearchBatchAreSafe) {
  // Flush/merge/add/delete racing a 4-way SearchBatch: every query must
  // serve one consistent snapshot (TSan guards the memory model; the
  // assertions guard result sanity).
  const std::string dir =
      std::string(::testing::TempDir()) + "/catalog_parity_race";
  std::filesystem::remove_all(dir);
  DatabaseConfig config = BaseConfig(dir);
  config.collection.num_docs = 120;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.AddDocument({{1, 1}}).ok());  // flip to dynamic serving

  std::thread mutator([&db] {
    Rng rng(24680);
    for (int round = 0; round < 6; ++round) {
      std::vector<DocTerms> batch;
      for (int i = 0; i < 10; ++i) batch.push_back(SynthDoc(rng));
      auto first = db.AddDocuments(batch);
      ASSERT_TRUE(first.ok());
      ASSERT_TRUE(db.DeleteDocument(first.ValueOrDie()).ok());
      ASSERT_TRUE(db.Flush().ok());
      if (round % 2 == 1) {
        ASSERT_TRUE(db.Merge().ok());
      }
    }
  });

  const std::vector<QueryRequest> requests =
      Requests(*queries_, 10, ForcedOptions(PhysicalStrategy::kHeap));
  for (int round = 0; round < 8; ++round) {
    auto batch = db.SearchBatch(requests, 4);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const SearchResult& r : batch.ValueOrDie().results) {
      for (size_t i = 1; i < r.top.items.size(); ++i) {
        EXPECT_TRUE(
            ScoredDocLess(r.top.items[i - 1], r.top.items[i]) ||
            r.top.items[i - 1].score == r.top.items[i].score);
      }
    }
  }
  mutator.join();
}

TEST_F(CatalogParityTest, MutationsDuringShardedSearchBatchAreSafe) {
  // The sharded variant of the race above: adds/upserts/deletes/flushes/
  // merges across 3 shards racing a 4-way SearchBatch whose queries fan
  // out again through the shard coordinator. Every query must catch one
  // consistent ShardedSnapshot (TSan guards the memory model — including
  // the snapshot's lazily built per-shard bound caches; the assertions
  // guard result sanity).
  const std::string dir =
      std::string(::testing::TempDir()) + "/catalog_parity_sharded_race";
  std::filesystem::remove_all(dir);
  DatabaseConfig config = BaseConfig(dir);
  config.collection.num_docs = 120;
  config.num_shards = 3;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();
  ASSERT_TRUE(db.AddDocument({{1, 1}}).ok());  // flip to dynamic serving

  std::thread mutator([&db] {
    Rng rng(13579);
    for (int round = 0; round < 6; ++round) {
      std::vector<DocTerms> batch;
      for (int i = 0; i < 9; ++i) batch.push_back(SynthDoc(rng));
      auto first = db.AddDocuments(batch);
      ASSERT_TRUE(first.ok());
      ASSERT_TRUE(db.DeleteDocument(first.ValueOrDie()).ok());
      auto single = db.AddDocument(SynthDoc(rng));
      ASSERT_TRUE(single.ok());
      auto updated = db.UpdateDocument(single.ValueOrDie(), SynthDoc(rng));
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      ASSERT_TRUE(db.Flush().ok());
      if (round % 2 == 1) {
        ASSERT_TRUE(db.Merge().ok());
      }
    }
  });

  const std::vector<QueryRequest> requests =
      Requests(*queries_, 10, ForcedOptions(PhysicalStrategy::kMaxScore));
  for (int round = 0; round < 8; ++round) {
    auto batch = db.SearchBatch(requests, 4);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const SearchResult& r : batch.ValueOrDie().results) {
      for (size_t i = 1; i < r.top.items.size(); ++i) {
        EXPECT_TRUE(
            ScoredDocLess(r.top.items[i - 1], r.top.items[i]) ||
            r.top.items[i - 1].score == r.top.items[i].score);
      }
    }
  }
  mutator.join();
}

/// The twin lifecycle of the unsharded-spine test below: a seed delete,
/// a flush, adds, a memtable delete, one update of a segment document, a
/// second flush, more adds and deletes on both sides of it — two segments
/// and a live memtable, tombstones in all three.
void RunTwinScript(MmDatabase& db) {
  Rng rng(424242);
  ASSERT_TRUE(db.DeleteDocument(3).ok());
  ASSERT_TRUE(db.DeleteDocument(57).ok());
  ASSERT_TRUE(db.Flush().ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(db.AddDocument(SynthDoc(rng)).ok());
  ASSERT_TRUE(db.DeleteDocument(310).ok());
  ASSERT_TRUE(db.UpdateDocument(20, SynthDoc(rng)).ok());
  ASSERT_TRUE(db.Flush().ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(db.AddDocument(SynthDoc(rng)).ok());
  ASSERT_TRUE(db.DeleteDocument(340).ok());  // memtable doc
  ASSERT_TRUE(db.DeleteDocument(99).ok());   // segment-1 doc
}

void ExpectSameCost(const CostCounters& a, const CostCounters& b,
                    const std::string& label) {
  EXPECT_EQ(a.sequential_reads, b.sequential_reads) << label;
  EXPECT_EQ(a.random_reads, b.random_reads) << label;
  EXPECT_EQ(a.score_evals, b.score_evals) << label;
  EXPECT_EQ(a.compares, b.compares) << label;
  EXPECT_EQ(a.bytes_touched, b.bytes_touched) << label;
  EXPECT_EQ(a.blocks_decoded, b.blocks_decoded) << label;
  EXPECT_EQ(a.blocks_skipped, b.blocks_skipped) << label;
  EXPECT_EQ(a.shards_visited, b.shards_visited) << label;
  EXPECT_EQ(a.shards_skipped, b.shards_skipped) << label;
  EXPECT_EQ(a.shard_postings_skipped, b.shard_postings_skipped) << label;
}

TEST_F(CatalogParityTest, UnshardedEngineMatchesCatalogReadViewOfTwin) {
  // Two databases run the same lifecycle. Every strategy executed by the
  // engine on one must equal the registry over the other's
  // IndexCatalog::OpenReadView — items bit-for-bit and every CostCounters
  // field — and planned Search must choose what StrategyPlanner chooses
  // over the twin's state. Twins, not one database: build-once caches
  // (impact orders, sparse indexes) fill in the same order on both sides.
  std::unique_ptr<MmDatabase> twins[2];
  for (int i = 0; i < 2; ++i) {
    const std::string dir = std::string(::testing::TempDir()) +
                            "/catalog_parity_twin_" + std::to_string(i);
    std::filesystem::remove_all(dir);
    auto opened = MmDatabase::Open(BaseConfig(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    twins[i] = std::move(opened).ValueOrDie();
    RunTwinScript(*twins[i]);
    if (HasFatalFailure()) return;
  }
  MmDatabase& engine = *twins[0];
  const IndexCatalog* twin = twins[1]->catalog();
  ASSERT_NE(twin, nullptr);
  ASSERT_EQ(twins[1]->sharded_catalog(), nullptr);

  const std::shared_ptr<const CatalogReadView> view = twin->OpenReadView();
  const CatalogState& state = view->state();
  ASSERT_EQ(state.Composition().num_segments, 2u);
  const Fragmentation fragmentation = Fragmentation::Build(
      state.stats().df, engine.config().fragmentation);
  ExecContext context;
  context.model = view->model();
  context.postings = view.get();
  context.fragmentation = &fragmentation;
  context.sparse_cache = &state.sparse_cache();
  context.postings_owner = view;

  for (PhysicalStrategy s : AllStrategies()) {
    for (size_t qi = 0; qi < queries_->size(); ++qi) {
      const Query& q = (*queries_)[qi];
      const std::string label =
          std::string(StrategyName(s)) + " query " + std::to_string(qi);
      auto expected =
          StrategyRegistry::Global().Execute(s, context, q, 10, ExecOptions{});
      ASSERT_TRUE(expected.ok()) << label;
      auto actual = engine.Execute(s, q, 10);
      ASSERT_TRUE(actual.ok()) << label << ": " << actual.status().ToString();
      const TopNResult& e = expected.ValueOrDie();
      const TopNResult& a = actual.ValueOrDie();
      ASSERT_EQ(e.items.size(), a.items.size()) << label;
      for (size_t r = 0; r < e.items.size(); ++r) {
        EXPECT_EQ(e.items[r].doc, a.items[r].doc) << label << " rank " << r;
        EXPECT_EQ(e.items[r].score, a.items[r].score) << label << " rank " << r;
      }
      ExpectSameCost(e.stats.cost, a.stats.cost, label);
    }
  }

  for (const double target : {1.0, 0.5}) {
    const CardinalityEstimator estimator(
        &state.stats().df, static_cast<int64_t>(state.stats().num_live_docs),
        &fragmentation);
    const StrategyPlanner planner(&estimator,
                                  StorageInputsFor(state.Composition()));
    PlanRequest preq;
    preq.n = 10;
    preq.quality_target = target;
    for (const Query& q : *queries_) {
      auto choice = planner.PlanChoice(q, preq);
      ASSERT_TRUE(choice.ok());
      QueryRequest request;
      request.query = q;
      request.n = 10;
      request.options.quality_target = target;
      auto searched = engine.Search(request);
      ASSERT_TRUE(searched.ok()) << searched.status().ToString();
      EXPECT_TRUE(searched.ValueOrDie().planned);
      EXPECT_EQ(searched.ValueOrDie().strategy, choice.ValueOrDie().strategy)
          << "target " << target;
      EXPECT_EQ(searched.ValueOrDie().estimate.scalar,
                choice.ValueOrDie().scalar)
          << "target " << target;
    }
  }
}

TEST_F(CatalogParityTest, AttachDetachDuringSearchBatchIsSafe) {
  // Static-mode snapshot safety (the former "NOT thread-safe" caveat):
  // attach/detach flips storage under a running SearchBatch; since the
  // segment holds the same collection, every result must stay
  // bit-identical to the in-memory answers regardless of which snapshot
  // each query caught.
  DatabaseConfig config = BaseConfig("");
  config.collection.num_docs = 150;
  auto opened = MmDatabase::Open(config);
  ASSERT_TRUE(opened.ok());
  MmDatabase& db = *opened.ValueOrDie();
  const std::string path =
      std::string(::testing::TempDir()) + "/attach_race.moaseg";
  ASSERT_TRUE(db.SaveSegment(path).ok());

  const std::vector<QueryRequest> requests =
      Requests(*queries_, 10, ForcedOptions(PhysicalStrategy::kMaxScore));
  std::vector<TopNResult> expected;
  for (const Query& q : *queries_) {
    expected.push_back(db.Execute(PhysicalStrategy::kMaxScore, q, 10)
                           .ValueOrDie());
  }

  std::thread flipper([&db, &path] {
    AttachSegmentOptions trusted;
    trusted.verify_payload = false;  // written and verified moments ago
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.AttachSegment(path, trusted).ok());
      db.DetachSegment();
    }
  });

  for (int round = 0; round < 8; ++round) {
    auto batch = db.SearchBatch(requests, 4);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (size_t i = 0; i < queries_->size(); ++i) {
      const TopNResult& got = batch.ValueOrDie().results[i].top;
      ASSERT_EQ(got.items.size(), expected[i].items.size());
      for (size_t r = 0; r < got.items.size(); ++r) {
        EXPECT_EQ(got.items[r], expected[i].items[r]) << "query " << i;
      }
    }
  }
  flipper.join();
}

}  // namespace
}  // namespace moa
