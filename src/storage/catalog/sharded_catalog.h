// ShardedCatalog: the document space partitioned across N independent
// IndexCatalog shards, plus the consistent multi-shard snapshot queries
// run against.
//
// Partitioning. Each shard is a complete IndexCatalog (memtable, segments,
// manifest) over its own dense *local* id space; the global id of local
// document l in shard s is  g = l * N + s  (so s = g % N, l = g / N —
// interleaved, which keeps both directions O(1) and shard-stable across
// per-shard merges: a merge compacts a shard's local ids, and the mapped
// global ids stay disjoint from every other shard's). New documents are
// routed to the least-loaded shard (smallest doc space, ties to the lowest
// shard index), which from an empty catalog degenerates to round-robin —
// a batch seeded into a pristine sharded catalog gets the *identity* ids
// 0..k-1, exactly like a single catalog.
//
// One shard. N = 1 is the engine's unsharded catalog, so it behaves
// exactly like the single IndexCatalog it wraps: the catalog lives in the
// root directory itself (no shard_0/ subdirectory, so single catalogs
// written earlier reopen), batches and updates pass straight through to
// the shard (one WAL record and one publication per update), and
// Describe() prints the shard state's own text.
//
// Snapshots. Snapshot() returns one ShardedSnapshot holding a consistent
// vector of per-shard CatalogStates (taken under the catalog's mutation
// lock, so no mutation interleaves the vector) plus the *global* live
// statistics aggregated across shards. Per-shard read views report the
// global statistics (df, N, avgdl, cf) while routing per-document lookups
// (DocLength) to the shard's own state — a scoring model bound to a shard
// view therefore computes bit-identical weights to a single catalog of
// the whole collection, and df-ordered strategies (max-score) process
// terms in the identical order on every shard. This is what makes the
// scatter-gather top-N merge bit-identical to single-catalog execution
// for every strategy whose reported scores are full deterministic sums.
//
// Impact orders and bounds. A shard's CatalogState keeps its own
// build-once impact cache, but its weights are computed under *that
// catalog's* statistics; under sharding the weights depend on the global
// statistics, which move whenever any other shard mutates — while the
// unchanged shard's state object (and its cache) persists. The
// ShardedSnapshot therefore owns one TermImpactCache per shard: the
// shard's live postings in impact order under the snapshot's global
// statistics, built on a term's first use and shared by every query on
// this snapshot. It serves the shard view's sorted access
// (OpenImpactCursor) and the exact per-(shard, term) bound. The per-shard *query* bound — the sum of a query's term bounds,
// the shard-skipping currency of the coordinator — comes from the same
// cache.
//
// Thread-safety: mutations are serialized internally; Snapshot() may race
// mutations freely (readers keep serving the snapshot they hold, exactly
// like IndexCatalog).
#ifndef MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_
#define MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/query_gen.h"
#include "storage/catalog/index_catalog.h"

namespace moa {

class ShardedSnapshot;

/// \brief N independent IndexCatalog shards behind one global id space.
class ShardedCatalog {
 public:
  struct Options {
    /// Number of shards (>= 1). Fixed at creation; Open must be called
    /// with the same count the catalog was created with.
    size_t num_shards = 1;
    /// Per-shard catalog options. `shard.dir` is the *root* directory:
    /// with more than one shard, shard s lives in <root>/shard_<s>; a
    /// single shard lives in <root> itself. Empty = memory-only shards.
    IndexCatalog::Options shard;
  };

  /// Fresh empty sharded catalog (creates the shard directories).
  static Result<std::unique_ptr<ShardedCatalog>> Create(const Options& options);
  /// Recovers every shard from its MANIFEST.
  static Result<std::unique_ptr<ShardedCatalog>> Open(const Options& options);
  /// True when `options.shard.dir` already holds a durable catalog of this
  /// layout (shard 0's MANIFEST exists): Open it rather than Create.
  static bool Exists(const Options& options);

  /// Adds one document to the least-loaded shard; returns its global id.
  Result<DocId> AddDocument(const DocTerms& terms);
  /// Adds a batch, routing greedily document-by-document (one per-shard
  /// AddDocuments call per touched shard; a single shard takes the batch
  /// as is); returns the global ids in input order.
  Result<std::vector<DocId>> AddDocuments(const std::vector<DocTerms>& docs);

  /// Tombstones the document at global id `global` in its owning shard.
  Status DeleteDocument(DocId global);

  /// Upsert as delete + add: tombstones `global`, re-ingests `terms` under
  /// a fresh id (insertion-order id contract, same as a single catalog's
  /// delete+add), returns the new global id. Two state publications — a
  /// concurrent snapshot may observe the document deleted but not yet
  /// re-added. A single shard forwards to IndexCatalog::UpdateDocument
  /// (one WAL record, one publication).
  Result<DocId> UpdateDocument(DocId global, const DocTerms& terms);

  /// Per-shard lifecycle, plus the all-shards conveniences the engine
  /// maps its Flush()/Merge() onto.
  Status Flush(size_t shard);
  Status FlushAll();
  Result<size_t> Merge(size_t shard, const MergePolicy& policy = {});
  /// Applies `policy` to every shard; returns total segments merged.
  Result<size_t> MergeAll(const MergePolicy& policy = {});

  /// The current consistent multi-shard snapshot (cached; rebuilt after a
  /// mutation on first use). With one shard it never waits for a mutation
  /// in flight, like IndexCatalog::Snapshot().
  std::shared_ptr<const ShardedSnapshot> Snapshot() const;

  /// Drops the cached snapshot so the next Snapshot() rebuilds from the
  /// shards' current states. Mutations through this class invalidate
  /// automatically; background maintenance publishing *directly* into a
  /// shard (via shard(s)) must call this from its on_state_change hook —
  /// a merge compacts the shard's local ids, so a stale cached snapshot
  /// would map global ids wrongly.
  void InvalidateSnapshotCache() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cached_.reset();
  }

  size_t num_shards() const { return shards_.size(); }
  IndexCatalog& shard(size_t s) { return *shards_[s]; }
  const IndexCatalog& shard(size_t s) const { return *shards_[s]; }
  const Options& options() const { return options_; }

  // Global <-> (shard, local) id mapping.
  static size_t ShardOf(DocId global, size_t num_shards) {
    return static_cast<size_t>(global % num_shards);
  }
  static DocId LocalOf(DocId global, size_t num_shards) {
    return global / static_cast<DocId>(num_shards);
  }
  static DocId GlobalOf(DocId local, size_t shard, size_t num_shards) {
    return local * static_cast<DocId>(num_shards) + static_cast<DocId>(shard);
  }

 private:
  explicit ShardedCatalog(Options options) : options_(std::move(options)) {}

  static Result<std::unique_ptr<ShardedCatalog>> Build(
      const Options& options,
      Result<std::unique_ptr<IndexCatalog>> (*open_one)(
          const IndexCatalog::Options&));
  /// Directory of shard s under the layout rule above ("" = memory-only).
  static std::string ShardDir(const Options& options, size_t s);

  /// Shard with the smallest doc space (ties to the lowest index), based
  /// on the given per-shard doc-space vector. Callers mutate the vector
  /// as they route so a batch distributes evenly.
  static size_t LeastLoaded(const std::vector<uint64_t>& doc_space);
  std::vector<uint64_t> DocSpaces() const;  // requires mutex_ held

  Options options_;
  std::vector<std::unique_ptr<IndexCatalog>> shards_;

  /// Serializes mutations. Per-shard catalogs serialize internally too;
  /// this lock is what makes the multi-shard routing decision + mutation
  /// atomic and, with more than one shard, the snapshot vector consistent
  /// (Snapshot() collects the states under it). Taken before cache_mutex_.
  mutable std::mutex mutex_;
  mutable std::mutex cache_mutex_;
  mutable std::shared_ptr<const ShardedSnapshot> cached_;  // null = stale
};

/// \brief Per-shard CollectionStatsView: global aggregates, local lengths.
///
/// Strategies running on a shard pass *local* doc ids to the model, so
/// DocLength routes to the shard's state; everything else (df, N, avgdl,
/// cf, token totals) is the cross-shard aggregate, keeping the weight
/// arithmetic — and the df-based term ordering — identical to a single
/// catalog of the whole collection.
class ShardStatsView final : public CollectionStatsView {
 public:
  ShardStatsView(const CatalogStats* global, const CatalogState* state)
      : global_(global), state_(state) {}

  size_t num_terms() const override { return global_->df.size(); }
  size_t num_docs() const override {
    return static_cast<size_t>(global_->num_live_docs);
  }
  uint32_t DocFrequency(TermId t) const override { return global_->df[t]; }
  uint32_t DocLength(DocId local) const override {
    return state_->DocLength(local);
  }
  double AverageDocLength() const override {
    if (global_->num_live_docs == 0) return 0.0;
    return static_cast<double>(global_->total_live_tokens) /
           static_cast<double>(global_->num_live_docs);
  }
  int64_t total_tokens() const override { return global_->total_live_tokens; }
  int64_t CollectionFrequency(TermId t) const override {
    return global_->cf[t];
  }

 private:
  const CatalogStats* global_;
  const CatalogState* state_;
};

/// \brief PostingSource over one shard under global statistics.
///
/// DocFrequency reports the *global* df — strategies that order or gate
/// work by df (max-score's term order, Fagin's accessor construction)
/// must behave identically on every shard; the shard's actual list can be
/// shorter or empty, which cursors handle naturally. MaxImpact and
/// OpenImpactCursor serve the snapshot-owned per-shard impact cache (see
/// file comment). Cursors and random access speak shard-local doc ids.
class ShardReadView final : public PostingSource {
 public:
  ShardReadView(const ShardedSnapshot* snapshot, size_t shard,
                const CatalogState* state)
      : snapshot_(snapshot), shard_(shard), state_(state) {}

  size_t num_terms() const override;
  size_t num_docs() const override {
    return static_cast<size_t>(state_->doc_space());
  }
  uint32_t DocFrequency(TermId t) const override;
  bool HasImpacts(TermId /*t*/) const override { return true; }
  double MaxImpact(TermId t) const override;
  std::unique_ptr<PostingCursor> OpenCursor(TermId t) const override;
  std::optional<uint32_t> FindTf(TermId t, DocId doc) const override {
    return state_->FindTf(t, doc);
  }
  /// Sorted access from the snapshot's per-shard impact cache, weighted
  /// by the shard's global-stats model; `model` itself is not consulted
  /// (it must match, the impact-order precondition). size() reports the
  /// global df, like DocFrequency.
  std::unique_ptr<ImpactCursor> OpenImpactCursor(
      TermId t, const ScoringModel& model) const override;

 private:
  const ShardedSnapshot* snapshot_;
  size_t shard_;
  const CatalogState* state_;
};

/// \brief One consistent snapshot across all shards.
///
/// Owns the per-shard serving bundles (stats view + scoring model + read
/// view + impact cache) and the aggregated global statistics. Immutable
/// except for the internally synchronized impact caches; shared by
/// shared_ptr like CatalogState.
class ShardedSnapshot {
 public:
  ShardedSnapshot(std::vector<std::shared_ptr<const CatalogState>> states,
                  ScoringModelKind scoring);
  ~ShardedSnapshot();

  size_t num_shards() const { return entries_.size(); }
  /// Strictly monotone across mutations (sum of per-shard versions).
  uint64_t version() const { return version_; }
  /// Aggregated live statistics (the "global-stats view" every shard
  /// scores under).
  const CatalogStats& stats() const { return global_; }
  /// Global doc-id space bound: every mapped global id is < doc_space().
  uint64_t doc_space() const;

  const CatalogState& shard_state(size_t s) const;
  /// The shard's PostingSource (local ids, global df, snapshot bounds).
  const PostingSource& shard_source(size_t s) const;
  /// The shard's scoring model, bound to the global stats view.
  const ScoringModel& shard_model(size_t s) const;
  /// The shard's snapshot-scoped sparse cache (postings only — safe to
  /// reuse the state's own cache across global-stat changes).
  SparseIndexCache& shard_sparse_cache(size_t s) const;
  /// Raw composition of shard s, for per-shard planner storage inputs.
  const CatalogComposition& shard_composition(size_t s) const;

  /// Exact max current weight of term t's live postings in shard s under
  /// the snapshot's global statistics, from the shard's impact cache (0
  /// when the shard holds no live posting of t). Build-once per
  /// (shard, term).
  double ShardTermBound(size_t s, TermId t) const;
  /// Sorted access over t's live postings in shard s from the same cache.
  std::unique_ptr<ImpactCursor> OpenShardImpactCursor(size_t s,
                                                      TermId t) const;
  /// Upper bound on any single document's score for `query` in shard s:
  /// the sum of the query terms' shard bounds. This is the coordinator's
  /// shard-skipping currency.
  double ShardQueryBound(size_t s, const Query& query) const;

  // Global-id document access (routes to the owning shard).
  uint32_t DocLength(DocId global) const;
  bool IsDeleted(DocId global) const;
  const DocTerms& TermsOf(DocId global) const;
  std::optional<uint32_t> FindTf(TermId t, DocId global) const;
  /// Live global ids, ascending.
  std::vector<DocId> LiveDocIds() const;

  /// Human-readable per-shard composition, e.g.
  /// "sharded(2): [shard 0: catalog v3: ...; shard 1: catalog v2: ...]";
  /// a single shard prints its state's own text ("catalog v3: ...").
  std::string Describe() const;

 private:
  struct ShardEntry;

  std::vector<std::unique_ptr<ShardEntry>> entries_;
  CatalogStats global_;
  uint64_t version_ = 0;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_SHARDED_CATALOG_H_
