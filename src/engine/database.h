// MmDatabase: the public facade tying everything together.
//
// Owns a (synthetic) collection, its inverted file with impact orders, the
// Step-1 fragmentation, a scoring model and a sparse-index cache — and
// executes top-N retrieval queries with any of the physical strategies.
// Every query enters as a QueryRequest: when it names a strategy, that
// strategy is forced; otherwise the Step-3 cost-based StrategyPlanner
// chooses per query, in static *and* dynamic mode, from live statistics
// and storage signals (codec, tombstone density, component count,
// fragment-directory presence).
//
// Storage spine. The database starts *static*: queries read the in-memory
// InvertedFile (optionally swapped for an attached mmap segment on the
// cursor strategies). The first mutation (AddDocument / DeleteDocument)
// seeds a ShardedCatalog (storage/catalog/) of DatabaseConfig::num_shards
// shards with the collection and flips the database to *dynamic*
// serving; the unsharded catalog is simply one shard. Queries snapshot
// the catalog per query and run through the ShardCoordinator, which
// plans and runs a one-shard snapshot exactly like the static spine
// (engine/shard_coordinator.h: PlanAndRun) and scatter-gathers over more
// shards. Statistics track the live documents exactly, and the index
// evolves through the memtable → flush → merge lifecycle. Every
// registered strategy runs in dynamic mode: all executors are
// cursor-based, the Step-1 fragmentation is derived from the snapshot's
// live statistics (cached per snapshot version), and sparse-probe
// indexes live in a snapshot-scoped cache.
//
// Concurrency: Search / Execute / SearchBatch are safe from many threads,
// and remain safe while another thread attaches/detaches a segment or
// mutates the catalog — every query pins the storage it started with via
// a shared_ptr snapshot (ExecContext::postings_owner); mutations
// serialize internally and publish by pointer swap.
#ifndef MOA_ENGINE_DATABASE_H_
#define MOA_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "ir/collection.h"
#include "ir/exact_eval.h"
#include "ir/metrics.h"
#include "obs/query_trace.h"
#include "optimizer/explain.h"
#include "optimizer/strategy_planner.h"
#include "storage/catalog/background_jobs.h"
#include "storage/catalog/index_catalog.h"
#include "storage/catalog/sharded_catalog.h"
#include "storage/fragmentation.h"
#include "storage/segment/segment_reader.h"
#include "storage/sparse_index_cache.h"
#include "topn/fragment_topn.h"
#include "topn/topn_result.h"

namespace moa {

/// \brief Everything needed to open a database.
struct DatabaseConfig {
  CollectionConfig collection;
  FragmentationPolicy fragmentation;
  ScoringModelKind scoring = ScoringModelKind::kBm25;
  /// Directory for the index catalog's segments + manifest, used once the
  /// database turns dynamic. Empty = memory-only catalog: mutations work,
  /// Flush/Merge return FailedPrecondition. If the directory already
  /// holds a catalog (a MANIFEST from an earlier process), the first
  /// mutation *recovers* it instead of seeding from the generated
  /// collection — the durable surviving documents become the served
  /// corpus.
  std::string catalog_dir;
  /// Number of catalog shards once the database turns dynamic. 1 (the
  /// default) is the unsharded catalog: a one-shard ShardedCatalog whose
  /// queries plan and run over the one shard like the static spine (no
  /// shard ticks), stored in catalog_dir itself. Greater values partition
  /// the document space across that many independent shards
  /// (storage/catalog/sharded_catalog.h) and route every query through
  /// the bound-aware scatter-gather ShardCoordinator: shards are visited
  /// in descending impact-upper-bound order on the shared thread pool,
  /// shards that cannot beat the running global n-th score are skipped
  /// entirely (CostCounters::shards_skipped), and later shards' max-score
  /// executions are seeded with the running threshold. Results for safe
  /// strategies are bit-identical to num_shards = 1 (global statistics
  /// view; fagin_nra excepted — set-level only). On disk each shard then
  /// keeps its own catalog under catalog_dir/shard_<s>; reopening
  /// requires the same shard count. 0 is read as 1.
  size_t num_shards = 1;
  /// Write-ahead log for the dynamic catalog (directory-backed only; see
  /// IndexCatalog::Options::wal_enabled): acknowledged mutations are
  /// fsync'ed before the call returns and replayed on recovery.
  bool wal_enabled = true;
  /// Group-commit fsync batching (IndexCatalog::Options::wal_fsync_every):
  /// 1 = every commit group syncs; larger values trade the tail of
  /// acknowledged records on power loss for fewer fsyncs.
  size_t wal_fsync_every = 1;
  /// Run Flush/Merge as background jobs on the shared thread pool
  /// (storage/catalog/background_jobs.h), triggered by the knobs below.
  /// Off by default: the explicit Flush()/Merge() lifecycle stays fully
  /// caller-driven unless opted in. Under sharding each shard gets its
  /// own maintenance loop.
  bool background_maintenance = false;
  /// Background flush trigger: memtable documents (per shard).
  size_t flush_trigger_docs = 1024;
  /// Background merge trigger: segment count (per shard).
  size_t merge_trigger_segments = 8;
  /// Segments compacted per background merge (size-tiered pick).
  size_t merge_fanin = 4;
  /// Minimum milliseconds between background job starts per catalog
  /// (0 = unthrottled).
  uint64_t maintenance_min_interval_millis = 0;
  /// Write backpressure, enforced only while background maintenance is
  /// attached: adds/updates block (or soft-fail with ResourceExhausted)
  /// once the memtable exceeds this many documents (0 = unbounded).
  size_t backpressure_memtable_docs = 0;
  /// Same, for un-merged segment debt (0 = unbounded).
  size_t backpressure_max_segments = 0;
  /// Over budget: false = block writers until maintenance catches up,
  /// true = fail fast with ResourceExhausted.
  bool backpressure_soft_fail = false;
  /// Stage-span trace sampling period: one in every `trace_every`
  /// queries per worker thread records a full per-stage QueryTrace and
  /// retires it to the engine's trace ring. 1 traces every query, 0
  /// disables sampling entirely (ExplainSearch always traces). Aggregate
  /// metrics — per-strategy query counts, latency histograms, the
  /// predicted-vs-observed scalar feed — are exact and unsampled
  /// regardless; sampling only bounds the cost of span collection, which
  /// would otherwise dominate on microsecond-scale queries.
  size_t trace_every = 16;
};

/// \brief Per-query knobs of a QueryRequest.
struct QueryOptions {
  /// Forced strategy. Absent = the cost-based StrategyPlanner decides
  /// from live statistics and storage signals.
  std::optional<PhysicalStrategy> strategy;
  /// Minimum predicted overlap@n for planner-chosen strategies: 1.0
  /// (default) admits only exact (safe) strategies; lower values let the
  /// planner pick cheap unsafe ones whose predicted quality still meets
  /// the target. Ignored when `strategy` is set.
  double quality_target = 1.0;
  /// Quality-switch threshold used by fragment strategies.
  double switch_threshold = 0.0;
};

/// \brief One retrieval query: the single entry point Search /
/// SearchBatch / Execute / ExplainSearch all consume.
struct QueryRequest {
  Query query;
  size_t n = 10;
  QueryOptions options;
};

/// \brief A search answer plus plan/bookkeeping.
struct SearchResult {
  TopNResult top;
  PhysicalStrategy strategy;
  PlanCostEstimate estimate;
  /// True when the strategy was chosen by the cost-based planner (false
  /// = forced by the request).
  bool planned = false;
  /// The planner's predicted overlap@n for the chosen strategy (1.0 for
  /// safe strategies).
  double predicted_quality = 1.0;
  double wall_millis = 0.0;
  /// True when this query was sampled for stage tracing (see
  /// DatabaseConfig::trace_every); `trace` below is populated only then.
  bool traced = false;
  /// Per-stage trace of this execution (plan / cursor-open / accumulate /
  /// heap-merge spans, wall time + CostCounters deltas). Empty when the
  /// query was not sampled or the observability layer is compiled out
  /// (MOA_OBS=OFF).
  obs::QueryTraceData trace;
};

/// \brief Aggregate statistics of one SearchBatch call.
struct BatchStats {
  size_t num_queries = 0;
  /// Worker threads actually used (after clamping to the batch size).
  size_t parallelism = 1;
  /// End-to-end batch wall time (not the sum of per-query times).
  double wall_millis = 0.0;
  /// num_queries / batch seconds.
  double qps = 0.0;
  /// Per-query latency percentiles, estimated from an equi-width
  /// Histogram over the individual wall times.
  double p50_millis = 0.0;
  double p95_millis = 0.0;
  double p99_millis = 0.0;
  /// Summed deterministic work counters across all queries.
  CostCounters total_cost;
};

/// \brief Per-query results plus aggregate stats of one batch.
struct BatchSearchResult {
  /// results[i] answers queries[i] (order preserved regardless of the
  /// execution interleaving).
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// \brief Options for MmDatabase::AttachSegment.
struct AttachSegmentOptions {
  /// Decode and verify every payload block (SegmentReader::CheckIntegrity)
  /// before attaching. Open only validates the header and directories
  /// structurally; without this pass, payload bit rot would surface as
  /// silently truncated posting lists — wrong top-N results with no error.
  /// Skipping the scan restores O(directories) attach cost and is only
  /// safe for segments with trusted provenance (e.g. written and verified
  /// by this same process moments earlier).
  bool verify_payload = true;
};

/// \brief The MM retrieval database.
class MmDatabase {
 public:
  /// Generates the collection, builds impact orders and fragmentation.
  static Result<std::unique_ptr<MmDatabase>> Open(const DatabaseConfig& config);

  /// The single query entry point: plans (or obeys request.options.
  /// strategy) and executes. With no forced strategy the cost-based
  /// StrategyPlanner chooses — in static *and* dynamic mode — the
  /// cheapest registered strategy whose predicted quality meets
  /// request.options.quality_target, from live statistics and storage
  /// signals (codec, tombstones, component count, fragment directory).
  /// Thread-safe.
  Result<SearchResult> Search(const QueryRequest& request) const;

  /// Fans `requests` out across a ThreadPool of `parallelism` workers
  /// (0 = ThreadPool::DefaultParallelism(), clamped to the batch size;
  /// 1 runs inline) and executes each with Search(request). Results keep
  /// request order and are bit-identical to sequential execution — all
  /// shared state is read-only or build-once (the sparse cache), and
  /// per-query scoring state is thread-private. Returns the first
  /// per-query error if any request fails.
  Result<BatchSearchResult> SearchBatch(
      const std::vector<QueryRequest>& requests, size_t parallelism = 0) const;

  /// Execute over the unified request: same planning as Search (forced
  /// when request.options.strategy is set, cost-based otherwise), but
  /// returns just the TopNResult. Thread-safe.
  Result<TopNResult> Execute(const QueryRequest& request) const;

  /// Executes a specific strategy directly, bypassing the planner (bench
  /// / harness path: no validation beyond the registry's own, so it can
  /// drive any strategy over any backend). `switch_threshold` is a common
  /// hint consulted by the fragment strategies only; every other strategy
  /// ignores it by design (typed per-strategy options go through the
  /// ExecOptions overload, where the registry rejects family mismatches).
  /// Thread-safe.
  Result<TopNResult> Execute(PhysicalStrategy strategy, const Query& query,
                             size_t n, double switch_threshold = 0.0) const;

  /// Registry execution with full per-strategy options (no default: keeps
  /// the legacy overload above unambiguous). Rejects typed options that do
  /// not belong to `strategy`'s family. Thread-safe.
  Result<TopNResult> Execute(PhysicalStrategy strategy, const Query& query,
                             size_t n, const ExecOptions& options) const;

  /// Borrowed exec-layer view of this database's state; hand it to
  /// StrategyRegistry::Global().Execute (benches swap in their own
  /// fragmentation or sparse cache before doing so). In static mode this
  /// is the in-memory file (plus the attached segment snapshot, if any);
  /// in dynamic mode it is shard 0 of the current catalog snapshot, with
  /// the snapshot's live-statistics fragmentation — the whole collection
  /// when unsharded. Under sharding no single PostingSource spans the
  /// collection, so the context covers shard 0 only (local postings under
  /// the global statistics) — whole-collection queries go through
  /// Search/Execute, which scatter-gather across every shard. Copies of
  /// the context may execute concurrently.
  ExecContext exec_context() const;

  // ---------------------------------------------------- index lifecycle
  // The first mutation seeds the catalog from the generated collection
  // (same doc ids) and flips the database to dynamic serving. Mutations
  // are thread-safe against each other and against in-flight searches.

  /// Adds a document (any order of (term, tf) pairs; terms must be below
  /// the collection's vocabulary). Returns its doc id.
  Result<DocId> AddDocument(const DocTerms& terms);
  /// Bulk ingest under consecutive ids; one snapshot publication total.
  Result<DocId> AddDocuments(const std::vector<DocTerms>& docs);
  /// Tombstones a document: it disappears from results immediately and
  /// statistics drop its exact composition; storage is reclaimed by
  /// Merge.
  Status DeleteDocument(DocId doc);
  /// Upserts a document as delete + add: tombstones `doc` and re-ingests
  /// `terms` under a fresh id (returned), following the insertion-order
  /// id contract of AddDocument. Not atomic: a concurrent query may
  /// observe the document deleted but not yet re-added.
  Result<DocId> UpdateDocument(DocId doc, const DocTerms& terms);
  /// Persists the memtable as an immutable segment (requires
  /// DatabaseConfig::catalog_dir).
  Status Flush();
  /// Compacts segments (default: all into one), dropping tombstones and
  /// compacting doc ids above the merged range. Returns segments merged.
  Result<size_t> Merge(const MergePolicy& policy = {});

  /// Blocks until background maintenance (if configured) has no job in
  /// flight and no trigger pending, then returns the first sticky
  /// background-job error (OK when none, or when maintenance is off).
  /// The "settle" point for tests and orderly shutdown; foreground
  /// writers may of course re-trigger afterwards.
  Status WaitForMaintenance();

  /// True once a mutation has occurred: queries now serve catalog
  /// snapshots.
  bool is_dynamic() const {
    return dynamic_.load(std::memory_order_acquire);
  }
  /// The unsharded catalog: the one shard's IndexCatalog (nullptr while
  /// static, or when more than one shard is configured — see
  /// sharded_catalog()).
  const IndexCatalog* catalog() const {
    return is_dynamic() && sharded_->num_shards() == 1 ? &sharded_->shard(0)
                                                        : nullptr;
  }
  /// The sharded catalog (nullptr while static or when it has one shard —
  /// see catalog()).
  const ShardedCatalog* sharded_catalog() const {
    return is_dynamic() && sharded_->num_shards() > 1 ? sharded_.get()
                                                       : nullptr;
  }

  /// The last completed query traces (oldest first; capacity 64). Empty
  /// when the observability layer is compiled out. Thread-safe.
  std::vector<obs::QueryTraceData> RecentTraces() const {
    return trace_ring_.Snapshot();
  }

  /// Exact ground truth for quality evaluation (catalog-aware).
  std::vector<ScoredDoc> GroundTruth(const Query& query, size_t n) const;
  /// Dense exact scores for quality evaluation, indexed by doc id
  /// (tombstoned slots score 0).
  std::vector<double> GroundTruthScores(const Query& query) const;

  /// Planner Explain, structured. The report carries the full planning
  /// decision — every candidate with predicted cost, predicted quality
  /// and a reject reason — plus what storage the plan reads (the
  /// in-memory file, an attached segment with its format/codec, or the
  /// catalog snapshot composition), the fragmentation a fragment strategy
  /// would use, and, when the chosen strategy can execute here,
  /// best-effort block counters from actually running the query
  /// (compressed blocks decoded vs skipped undecoded). Explain always
  /// runs the full candidate enumeration, forced strategies included.
  Result<ExplainReport> ExplainSearch(const QueryRequest& request) const;

  /// Writes the collection as a compressed segment (MOAIF03 bit-packed,
  /// the writer default; atomic overwrite).
  /// Per-term/per-block max impacts are computed with this
  /// database's scoring model, so max-score pruning over the reopened
  /// segment takes bit-identical decisions to the in-memory path.
  /// Static mode only — a dynamic database persists through Flush.
  Status SaveSegment(const std::string& path,
                     uint32_t block_size = kDefaultSegmentBlockSize) const;

  /// Memory-maps the MOAIF02 segment at `path` and routes every
  /// registered strategy through it (the Fagin and fragment families use
  /// its impact-ordered fragment directory when present). The segment
  /// must describe this database's collection (validated by shape), and
  /// by default its payload is fully decoded once to rule out bit rot
  /// (see AttachSegmentOptions::verify_payload). Safe against in-flight
  /// searches: queries already running keep the storage they started
  /// with (snapshot-per-query). Static mode only.
  Status AttachSegment(const std::string& path,
                       const AttachSegmentOptions& options = {});

  /// Reverts to pure in-memory execution. Safe against in-flight
  /// searches (same snapshot mechanism as AttachSegment).
  void DetachSegment();
  bool has_segment() const { return segment_snapshot() != nullptr; }
  /// Shared snapshot of the attached segment (nullptr when none).
  std::shared_ptr<const SegmentReader> segment() const {
    return segment_snapshot();
  }

  const InvertedFile& file() const { return collection_->inverted_file(); }
  const Collection& collection() const { return *collection_; }
  const Fragmentation& fragmentation() const { return fragmentation_; }
  const ScoringModel& model() const { return *model_; }
  const DatabaseConfig& config() const { return config_; }

 private:
  MmDatabase() = default;

  std::shared_ptr<const SegmentReader> segment_snapshot() const;
  /// Creates (or recovers) and seeds the catalog on first mutation
  /// (caller holds mutation_mutex_).
  Status EnsureDynamicLocked();
  /// The static-mode context (in-memory file + optional attached
  /// segment); exec_context() dispatches here when not dynamic.
  ExecContext static_context() const;
  /// Fragmentation of one catalog snapshot, derived from its live (global)
  /// df under this database's policy. Cached per snapshot version (a
  /// single entry — mutations invalidate by bumping the version). Only
  /// the fragment strategies read it, so the default cursor path skips
  /// the build and the cache lock entirely.
  std::shared_ptr<const Fragmentation> DynamicFragmentation(
      const ShardedSnapshot& snapshot) const;
  /// Storage signals for static serving: neutral in-memory defaults, or
  /// the attached segment's codec / fragment-directory signals.
  StrategyCostInputs StaticStorageInputs(const SegmentReader* segment) const;
  /// The one implementation behind Search / SearchBatch / Execute /
  /// ExplainSearch: snapshots storage once, then plans and executes —
  /// PlanAndRun when static, ShardCoordinator::Run when dynamic. With
  /// `explain` true the planner always enumerates the full candidate
  /// table into *decision_out (forced requests included) and execution is
  /// skipped — ExplainSearch reports block usage separately, best effort.
  Result<SearchResult> RunQuery(const QueryRequest& request, bool explain,
                                PlanDecision* decision_out) const;
  /// Payload of the ExplainReport `storage:` field (what the plan reads).
  std::string DescribeStorage() const;
  /// Records per-query metrics and pushes the trace into the ring.
  /// Pass-through for errors and explain-only runs.
  Result<SearchResult> FinishQuery(Result<SearchResult> result,
                                   bool explain) const;
  /// Fills the ExplainReport block/shard counters and stage trace by
  /// running the query with `strategy` (best effort; returns false when
  /// execution fails).
  bool TracedExecution(PhysicalStrategy strategy, const Query& query, size_t n,
                       double switch_threshold, ExplainReport* report) const;

  DatabaseConfig config_;
  std::unique_ptr<Collection> collection_;
  Fragmentation fragmentation_;
  std::unique_ptr<ScoringModel> model_;
  std::unique_ptr<CardinalityEstimator> estimator_;

  /// Optional mmap-backed posting storage attached by AttachSegment
  /// (static mode). Guarded by snapshot_mutex_ for pointer load/store;
  /// queries copy the shared_ptr once and keep it for their lifetime.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const SegmentReader> segment_;
  std::string segment_path_;  ///< for Explain output; guarded like segment_

  /// Index lifecycle (dynamic mode). sharded_ (one shard when unsharded)
  /// is created once under mutation_mutex_ and never replaced; dynamic_
  /// flips (release) after it is fully seeded, so readers seeing true
  /// (acquire) see a complete catalog.
  std::mutex mutation_mutex_;
  std::unique_ptr<ShardedCatalog> sharded_;
  /// One maintenance loop per shard when
  /// DatabaseConfig::background_maintenance is on. Declared after
  /// sharded_ so destruction detaches and drains every loop before its
  /// catalog dies.
  std::vector<std::unique_ptr<BackgroundMaintenance>> maintenance_;
  std::atomic<bool> dynamic_{false};

  /// Lazily filled by sparse-probe executions; mutable because filling the
  /// cache is not an observable mutation of the database (build-once,
  /// internally locked — the one piece of shared state Search may write).
  /// Static mode only: catalog snapshots carry their own snapshot-scoped
  /// cache (stale-proof across mutations).
  mutable SparseIndexCache sparse_cache_;

  /// Single-entry cache of DynamicFragmentation, keyed by snapshot
  /// version. shared_ptr so in-flight queries keep their fragmentation
  /// alive (bundled into ExecContext::postings_owner) while mutations
  /// replace the cache entry.
  mutable std::mutex dyn_frag_mutex_;
  mutable uint64_t dyn_frag_version_ = 0;
  mutable std::shared_ptr<const Fragmentation> dyn_frag_;

  /// Last K completed query traces (mutable: Search is const; the ring is
  /// engine bookkeeping, not database state). Never written when the
  /// observability layer is compiled out.
  mutable obs::TraceRing trace_ring_{64};
};

}  // namespace moa

#endif  // MOA_ENGINE_DATABASE_H_
