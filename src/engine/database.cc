#include "engine/database.h"

#include <algorithm>

#include "engine/shard_coordinator.h"
#include "exec/registry.h"
#include "obs/metrics.h"
#include "optimizer/explain.h"
#include "storage/segment/segment_writer.h"

namespace moa {

Result<std::unique_ptr<MmDatabase>> MmDatabase::Open(
    const DatabaseConfig& config) {
  auto db = std::unique_ptr<MmDatabase>(new MmDatabase());
  db->config_ = config;

  Result<Collection> coll = Collection::Generate(config.collection);
  if (!coll.ok()) return coll.status();
  db->collection_ = std::make_unique<Collection>(std::move(coll).ValueOrDie());

  InvertedFile& file = db->collection_->mutable_inverted_file();
  switch (config.scoring) {
    case ScoringModelKind::kTfIdf:
      db->model_ = MakeTfIdf(&file);
      break;
    case ScoringModelKind::kBm25:
      db->model_ = MakeBm25(&file);
      break;
    case ScoringModelKind::kLanguageModel:
      db->model_ = MakeLanguageModel(&file);
      break;
  }
  file.BuildImpactOrders([&](TermId t, const Posting& p) {
    return db->model_->Weight(t, p);
  });
  db->fragmentation_ = Fragmentation::Build(file, config.fragmentation);
  db->estimator_ = std::make_unique<CardinalityEstimator>(
      &file, &db->fragmentation_);
  return db;
}

std::shared_ptr<const SegmentReader> MmDatabase::segment_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return segment_;
}

std::shared_ptr<const Fragmentation> MmDatabase::DynamicFragmentation(
    const ShardedSnapshot& snapshot) const {
  std::lock_guard<std::mutex> lock(dyn_frag_mutex_);
  if (dyn_frag_ == nullptr || dyn_frag_version_ != snapshot.version()) {
    // Live df is all the assignment depends on, so this fragments exactly
    // like a fresh index of the surviving documents. The df is the global
    // aggregate, so the term classification every shard executes with is
    // identical to a single catalog's.
    dyn_frag_ = std::make_shared<const Fragmentation>(
        Fragmentation::Build(snapshot.stats().df, config_.fragmentation));
    dyn_frag_version_ = snapshot.version();
  }
  return dyn_frag_;
}

namespace {

/// The strategies that read ExecContext::fragmentation — registry
/// metadata (PlannerHooks::needs_fragmentation), not a hard-coded list,
/// so custom registrations participate.
bool NeedsFragmentation(PhysicalStrategy s) {
  const StrategyRegistry::Entry* entry = StrategyRegistry::Global().Find(s);
  return entry != nullptr && entry->planner.needs_fragmentation;
}

/// What a borrowed dynamic context pins: the snapshot and the
/// fragmentation derived from it.
struct DynamicContextOwner {
  std::shared_ptr<const ShardedSnapshot> snapshot;
  std::shared_ptr<const Fragmentation> fragmentation;
};

}  // namespace

ExecContext MmDatabase::static_context() const {
  ExecContext context;
  context.file = &file();
  context.model = model_.get();
  context.fragmentation = &fragmentation_;
  context.sparse_cache = &sparse_cache_;
  std::shared_ptr<const SegmentReader> segment = segment_snapshot();
  context.postings = segment.get();
  context.postings_owner = std::move(segment);
  return context;
}

ExecContext MmDatabase::exec_context() const {
  if (!is_dynamic()) return static_context();
  // Callers of the borrowed view don't name a strategy up front, so the
  // context carries every capability, fragmentation included. It covers
  // shard 0, which under sharding is only part of the collection (see
  // the header).
  auto owner = std::make_shared<DynamicContextOwner>();
  owner->snapshot = sharded_->Snapshot();
  owner->fragmentation = DynamicFragmentation(*owner->snapshot);
  ExecContext context = ShardCoordinator::ShardContext(
      owner->snapshot, 0, owner->fragmentation.get());
  context.postings_owner = std::move(owner);
  return context;
}

namespace {

/// Header-stamped model identifier: ScoringModel::name() truncated the
/// same way the writer truncates it, so save/attach agree even for names
/// longer than the header field.
std::string SegmentModelId(const ScoringModel& model) {
  return model.name().substr(0, kImpactModelBytes - 1);
}

}  // namespace

Status MmDatabase::SaveSegment(const std::string& path,
                               uint32_t block_size) const {
  if (is_dynamic()) {
    return Status::FailedPrecondition(
        "SaveSegment serves the static collection; a dynamic database "
        "persists through Flush()");
  }
  SegmentWriterOptions options;
  options.block_size = block_size;
  options.impact_fn = [this](TermId t, const Posting& p) {
    return model_->Weight(t, p);
  };
  options.impact_model = SegmentModelId(*model_);
  return WriteSegment(file(), path, options);
}

Status MmDatabase::AttachSegment(const std::string& path,
                                 const AttachSegmentOptions& options) {
  if (is_dynamic()) {
    return Status::FailedPrecondition(
        "AttachSegment is a static-mode operation; the dynamic catalog "
        "manages its own segments");
  }
  Result<std::unique_ptr<SegmentReader>> reader = SegmentReader::Open(path);
  if (!reader.ok()) return reader.status();
  SegmentReader& segment = *reader.ValueOrDie();
  if (segment.num_terms() != file().num_terms() ||
      segment.num_docs() != file().num_docs() ||
      segment.total_tokens() != static_cast<uint64_t>(file().total_tokens())) {
    return Status::InvalidArgument(
        "segment does not match this database's collection: " + path);
  }
  // Impact bounds are only upper bounds under the model that computed
  // them; pruning with another model's bounds silently drops true top-N
  // documents. The engine therefore only attaches segments whose stamped
  // model matches its own (SaveSegment always stamps).
  if (!segment.has_impacts() ||
      segment.impact_model() != SegmentModelId(*model_)) {
    return Status::InvalidArgument(
        "segment impact bounds were not computed with this database's "
        "scoring model (" + model_->name() + "): " + path);
  }
  // Open only validates the directories; a flipped payload byte would
  // otherwise show up as a silently truncated posting list at query time
  // (the cursor fails closed on decode errors, it cannot report them).
  if (options.verify_payload) {
    Status integrity = segment.CheckIntegrity();
    if (!integrity.ok()) return integrity;
  }
  // Publish by pointer swap: in-flight queries keep the storage snapshot
  // they started with (exec_context copies the shared_ptr).
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  segment_ = std::shared_ptr<const SegmentReader>(
      std::move(reader).ValueOrDie().release());
  segment_path_ = path;
  return Status::OK();
}

void MmDatabase::DetachSegment() {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  segment_.reset();
  segment_path_.clear();
}

// ------------------------------------------------------ index lifecycle

Status MmDatabase::EnsureDynamicLocked() {
  if (sharded_ != nullptr) return Status::OK();

  ShardedCatalog::Options options;
  options.num_shards = std::max<size_t>(1, config_.num_shards);
  options.shard.num_terms = file().num_terms();
  options.shard.dir = config_.catalog_dir;
  options.shard.scoring = config_.scoring;
  options.shard.wal_enabled = config_.wal_enabled;
  options.shard.wal_fsync_every = config_.wal_fsync_every;
  if (config_.background_maintenance) {
    options.shard.backpressure_memtable_docs =
        config_.backpressure_memtable_docs;
    options.shard.backpressure_max_segments = config_.backpressure_max_segments;
    options.shard.backpressure_soft_fail = config_.backpressure_soft_fail;
  }

  std::unique_ptr<ShardedCatalog> catalog;
  if (ShardedCatalog::Exists(options)) {
    // The directory already holds a durable catalog (an earlier process's
    // flushes): recover it. Its surviving documents — not the freshly
    // generated collection — become the served corpus; re-seeding would
    // duplicate every previously flushed document.
    Result<std::unique_ptr<ShardedCatalog>> opened =
        ShardedCatalog::Open(options);
    if (!opened.ok()) return opened.status();
    catalog = std::move(opened).ValueOrDie();
  } else {
    Result<std::unique_ptr<ShardedCatalog>> created =
        ShardedCatalog::Create(options);
    if (!created.ok()) return created.status();
    catalog = std::move(created).ValueOrDie();
    // Seed the fresh catalog with the generated collection under the
    // same doc ids: transpose the inverted file into per-document
    // compositions and ingest them as one batch. Round-robin routing from
    // an empty catalog assigns document k the global id k, so the seed
    // keeps the generated collection's ids under sharding too.
    const InvertedFile& f = file();
    if (f.num_docs() > 0) {
      std::vector<DocTerms> docs(f.num_docs());
      for (TermId t = 0; t < f.num_terms(); ++t) {
        const PostingList& list = f.list(t);
        for (size_t i = 0; i < list.size(); ++i) {
          docs[list[i].doc].emplace_back(t, list[i].tf);
        }
      }
      Result<std::vector<DocId>> ids = catalog->AddDocuments(docs);
      if (!ids.ok()) return ids.status();
    }
  }

  sharded_ = std::move(catalog);
  // Maintenance needs a directory to flush into; memory-only catalogs
  // would fail every background job.
  if (config_.background_maintenance && !config_.catalog_dir.empty()) {
    MaintenancePolicy policy;
    policy.flush_trigger_docs = config_.flush_trigger_docs;
    policy.merge_trigger_segments = config_.merge_trigger_segments;
    policy.merge_fanin = config_.merge_fanin;
    policy.min_interval_millis = config_.maintenance_min_interval_millis;
    // One loop per shard; every background publish drops the cached
    // snapshot (a merge compacts the shard's local ids).
    ShardedCatalog* catalog_ptr = sharded_.get();
    for (size_t s = 0; s < sharded_->num_shards(); ++s) {
      maintenance_.push_back(std::make_unique<BackgroundMaintenance>(
          &sharded_->shard(s), policy,
          [catalog_ptr] { catalog_ptr->InvalidateSnapshotCache(); }));
    }
  }
  // Release-publish: readers that observe dynamic_ == true see the fully
  // seeded catalog.
  dynamic_.store(true, std::memory_order_release);
  return Status::OK();
}

Status MmDatabase::WaitForMaintenance() {
  // maintenance_ is created once under mutation_mutex_ and only destroyed
  // with the database; snapshotting the loops here (not holding the lock
  // while waiting) keeps foreground mutations flowing while we drain.
  std::vector<BackgroundMaintenance*> loops;
  {
    std::lock_guard<std::mutex> lock(mutation_mutex_);
    for (const auto& m : maintenance_) loops.push_back(m.get());
  }
  Status first_error;
  for (BackgroundMaintenance* m : loops) {
    m->WaitIdle();
    const Status s = m->TakeLastError();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Result<DocId> MmDatabase::AddDocument(const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return sharded_->AddDocument(terms);
}

Result<DocId> MmDatabase::AddDocuments(const std::vector<DocTerms>& docs) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  // The first document's global id; under sharding ids are consecutive
  // whenever the shards are balanced (always true for the pristine seed
  // and pure-append workloads).
  Result<std::vector<DocId>> ids = sharded_->AddDocuments(docs);
  if (!ids.ok()) return ids.status();
  const std::vector<DocId>& v = ids.ValueOrDie();
  return v.empty() ? DocId{0} : v.front();
}

Status MmDatabase::DeleteDocument(DocId doc) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return sharded_->DeleteDocument(doc);
}

Result<DocId> MmDatabase::UpdateDocument(DocId doc, const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return sharded_->UpdateDocument(doc, terms);
}

Status MmDatabase::Flush() {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return sharded_->FlushAll();
}

Result<size_t> MmDatabase::Merge(const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  MOA_RETURN_NOT_OK(EnsureDynamicLocked());
  return sharded_->MergeAll(policy);
}

// --------------------------------------------------------------- queries

Result<TopNResult> MmDatabase::Execute(PhysicalStrategy strategy,
                                       const Query& query, size_t n,
                                       double switch_threshold) const {
  ExecOptions options;
  options.switch_threshold = switch_threshold;
  return Execute(strategy, query, n, options);
}

Result<TopNResult> MmDatabase::Execute(PhysicalStrategy strategy,
                                       const Query& query, size_t n,
                                       const ExecOptions& options) const {
  // Direct registry execution, no planner in the loop: benches and
  // harnesses use this to drive any strategy over any backend with no
  // validation beyond the registry's own. The strategy is known here, so
  // dynamic queries only pay for the live-statistics fragmentation when
  // a fragment strategy runs.
  if (is_dynamic()) {
    const std::shared_ptr<const ShardedSnapshot> snapshot =
        sharded_->Snapshot();
    const std::shared_ptr<const Fragmentation> frag =
        NeedsFragmentation(strategy) ? DynamicFragmentation(*snapshot)
                                     : nullptr;
    ShardCoordinator::Options copts;
    copts.fragmentation = frag.get();
    return ShardCoordinator::Execute(snapshot, strategy, query, n, options,
                                     copts);
  }
  return StrategyRegistry::Global().Execute(strategy, static_context(), query,
                                            n, options);
}

StrategyCostInputs MmDatabase::StaticStorageInputs(
    const SegmentReader* segment) const {
  if (segment == nullptr) return StrategyCostInputs{};  // neutral in-memory
  return StorageInputsForSegment(segment->codec(),
                                 segment->has_fragment_directory());
}

namespace {

/// Per-thread sampling decision for stage tracing. A plain thread_local
/// round-robin — no atomics, and SearchBatch workers each sample their
/// own every-Nth query independently.
bool SampleTrace(size_t every) {
  if (!obs::kEnabled || every == 0) return false;
  if (every == 1) return true;
  thread_local uint64_t counter = 0;
  return (counter++ % every) == 0;
}

}  // namespace

Result<SearchResult> MmDatabase::RunQuery(const QueryRequest& request,
                                          bool explain,
                                          PlanDecision* decision_out) const {
  // One storage snapshot per query: plan and execution must see the same
  // state. The dynamic/static decision is read once; a query that raced
  // the first mutation onto the static side stays static end-to-end (the
  // generated collection is immutable), instead of planning statically
  // and then executing against the catalog.
  const bool trace = !explain && SampleTrace(config_.trace_every);
  if (is_dynamic()) {
    const std::shared_ptr<const ShardedSnapshot> snapshot =
        sharded_->Snapshot();
    // The live-statistics fragmentation is only built when a fragment
    // strategy could actually run: a forced fragment strategy, or planner
    // choice with a quality target that admits unsafe strategies. At
    // target 1.0 no fragment strategy can win — the safe one
    // (quality_switch_full) predicts exactly heap's cost and loses the
    // deterministic tie — so the default cursor path skips the build and
    // its cache lock entirely. Explain always builds it: the candidate
    // table should show the fragment strategies' predictions.
    const bool want_frag =
        explain || (request.options.strategy.has_value()
                        ? NeedsFragmentation(*request.options.strategy)
                        : request.options.quality_target < 1.0);
    const std::shared_ptr<const Fragmentation> frag =
        want_frag ? DynamicFragmentation(*snapshot) : nullptr;
    ShardCoordinator::Options copts;
    copts.fragmentation = frag.get();
    return FinishQuery(ShardCoordinator::Run(snapshot, request, explain, trace,
                                             decision_out, copts),
                       explain);
  }

  const ExecContext context = static_context();
  const SegmentReader* segment =
      static_cast<const SegmentReader*>(context.postings);
  const StrategyPlanner planner(estimator_.get(), StaticStorageInputs(segment));
  return FinishQuery(PlanAndRun(planner, context, request, explain, trace,
                                decision_out),
                     explain);
}

namespace {

/// Per-query metric handles. Registry handles are process-stable
/// (metrics are never erased; ResetForTest zeroes values in place), so
/// they are resolved once — the per-query cost is a handful of relaxed
/// sharded adds, never a string-keyed map probe.
struct QueryMetrics {
  obs::Counter* query_total[16];  // indexed by PhysicalStrategy
  obs::HistogramMetric* latency_ms;
  obs::Counter* plan_planned;
  obs::Counter* plan_forced;
  obs::Counter* predicted_scalar;
  obs::Counter* observed_scalar;
  obs::Counter* shard_visited;
  obs::Counter* shard_skipped;
  obs::Counter* shard_postings_skipped;

  static const QueryMetrics& Get() {
    static const QueryMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      QueryMetrics m{};  // unregistered slots stay null
      for (PhysicalStrategy strategy : AllStrategies()) {
        const auto i = static_cast<size_t>(strategy);
        if (i < std::size(m.query_total)) {
          m.query_total[i] = registry.GetCounter(
              "moa_query_total",
              "strategy=" + std::string(StrategyName(strategy)));
        }
      }
      m.latency_ms = registry.GetHistogram("moa_query_latency_ms");
      m.plan_planned = registry.GetCounter("moa_plan_total", "mode=planned");
      m.plan_forced = registry.GetCounter("moa_plan_total", "mode=forced");
      m.predicted_scalar =
          registry.GetCounter("moa_plan_predicted_scalar_total");
      m.observed_scalar = registry.GetCounter("moa_plan_observed_scalar_total");
      m.shard_visited = registry.GetCounter("moa_shard_visited_total");
      m.shard_skipped = registry.GetCounter("moa_shard_skipped_total");
      m.shard_postings_skipped =
          registry.GetCounter("moa_shard_postings_skipped_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Result<SearchResult> MmDatabase::FinishQuery(Result<SearchResult> result,
                                             bool explain) const {
  if (!obs::kEnabled || explain || !result.ok()) return result;
  const SearchResult& r = result.ValueOrDie();
  const QueryMetrics& metrics = QueryMetrics::Get();
  const auto strategy_index = static_cast<size_t>(r.strategy);
  if (strategy_index < std::size(metrics.query_total) &&
      metrics.query_total[strategy_index] != nullptr) {
    metrics.query_total[strategy_index]->Add();
  } else {
    // A strategy registered after the handle table was built (tests
    // with custom registrations): slow path, still correct.
    obs::MetricsRegistry::Global()
        .GetCounter("moa_query_total",
                    "strategy=" + std::string(StrategyName(r.strategy)))
        ->Add();
  }
  metrics.latency_ms->Observe(r.wall_millis);
  (r.planned ? metrics.plan_planned : metrics.plan_forced)->Add();
  // The raw predicted-vs-observed feed for the calibration loop: the
  // ratio of these two running sums is the planner's global cost-model
  // drift (bench_compare.py --calibration distills it from the JSON
  // dump). Driven off the result's own plan estimate and CostScope
  // counters, so it stays exact for untraced (unsampled) queries.
  metrics.predicted_scalar->Add(r.estimate.scalar);
  metrics.observed_scalar->Add(r.top.stats.cost.Scalar());
  // Shard scatter-gather accounting (zero on unsharded queries, so the
  // counters move only when the coordinator ran): visited vs bound-pruned
  // shards and the exact posting volume the pruned shards held.
  const CostCounters& cost = r.top.stats.cost;
  if (cost.shards_visited != 0 || cost.shards_skipped != 0) {
    metrics.shard_visited->Add(static_cast<double>(cost.shards_visited));
    metrics.shard_skipped->Add(static_cast<double>(cost.shards_skipped));
    metrics.shard_postings_skipped->Add(
        static_cast<double>(cost.shard_postings_skipped));
  }
  if (r.traced) trace_ring_.Push(r.trace);
  return result;
}

Result<SearchResult> MmDatabase::Search(const QueryRequest& request) const {
  return RunQuery(request, /*explain=*/false, nullptr);
}

Result<TopNResult> MmDatabase::Execute(const QueryRequest& request) const {
  Result<SearchResult> result = RunQuery(request, /*explain=*/false, nullptr);
  if (!result.ok()) return result.status();
  return std::move(result).ValueOrDie().top;
}

std::vector<ScoredDoc> MmDatabase::GroundTruth(const Query& query,
                                               size_t n) const {
  if (is_dynamic()) {
    // Exact per-shard top-N under the global statistics, merged under the
    // global (score desc, doc asc) order — the exact global top-N, since
    // every document lives in exactly one shard.
    const std::shared_ptr<const ShardedSnapshot> snapshot =
        sharded_->Snapshot();
    std::vector<ScoredDoc> all;
    for (size_t s = 0; s < snapshot->num_shards(); ++s) {
      std::vector<ScoredDoc> top = ExactTopN(
          snapshot->shard_source(s), snapshot->shard_model(s), query, n);
      for (ScoredDoc& sd : top) {
        sd.doc = ShardedCatalog::GlobalOf(sd.doc, s, snapshot->num_shards());
        all.push_back(sd);
      }
    }
    std::sort(all.begin(), all.end(), ScoredDocLess);
    if (all.size() > n) all.resize(n);
    return all;
  }
  return ExactTopN(file(), *model_, query, n);
}

std::vector<double> MmDatabase::GroundTruthScores(const Query& query) const {
  if (is_dynamic()) {
    // Dense by *global* id: each shard's local score vector scattered
    // through the interleaved id mapping; unmapped slots stay 0.
    const std::shared_ptr<const ShardedSnapshot> snapshot =
        sharded_->Snapshot();
    std::vector<double> scores(snapshot->doc_space(), 0.0);
    for (size_t s = 0; s < snapshot->num_shards(); ++s) {
      const std::vector<double> local = AccumulateScores(
          snapshot->shard_source(s), snapshot->shard_model(s), query);
      for (size_t l = 0; l < local.size(); ++l) {
        const DocId g = ShardedCatalog::GlobalOf(static_cast<DocId>(l), s,
                                                 snapshot->num_shards());
        if (static_cast<size_t>(g) < scores.size()) scores[g] = local[l];
      }
    }
    return scores;
  }
  return AccumulateScores(file(), *model_, query);
}

std::string MmDatabase::DescribeStorage() const {
  // Payload only — ExplainReport::ToString prepends the "storage: " key.
  if (is_dynamic()) return sharded_->Snapshot()->Describe();
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  if (segment_ != nullptr) {
    return "in-memory inverted file; all strategies read mmap segment " +
           segment_path_ + " [" + segment_->format_name() + ", " +
           SegmentCodecName(segment_->codec()) + " codec]" +
           (segment_->has_fragment_directory()
                ? " (impact-ordered fragment directory)"
                : " (no fragment directory)");
  }
  return "in-memory inverted file";
}

bool MmDatabase::TracedExecution(PhysicalStrategy strategy, const Query& query,
                                 size_t n, double switch_threshold,
                                 ExplainReport* report) const {
  // Best effort: re-run the query and report how the storage layer
  // behaved, with per-query tracing active so the report also carries
  // stage spans and observed CostCounters. A strategy that cannot execute
  // here (missing impacts, precondition failures) simply contributes no
  // counters — the explain itself must not fail because of it.
  obs::QueryTrace qtrace;
  const Result<TopNResult> run = Execute(strategy, query, n, switch_threshold);
  obs::QueryTraceData data = qtrace.Finish();
  if (!run.ok()) return false;
  const CostCounters& cost = run.ValueOrDie().stats.cost;
  report->blocks_decoded = cost.blocks_decoded;
  report->blocks_skipped = cost.blocks_skipped;
  report->has_shards = cost.shards_visited != 0 || cost.shards_skipped != 0;
  report->shards_visited = cost.shards_visited;
  report->shards_skipped = cost.shards_skipped;
  report->trace = std::move(data);
  return true;
}

Result<ExplainReport> MmDatabase::ExplainSearch(
    const QueryRequest& request) const {
  ExplainReport report;
  Result<SearchResult> planned =
      RunQuery(request, /*explain=*/true, &report.decision);
  if (!planned.ok()) return planned.status();
  report.storage = DescribeStorage();
  // Fragment strategies run over a fragmentation; show the split the
  // chosen strategy would use.
  if (NeedsFragmentation(report.decision.strategy)) {
    report.fragmentation =
        is_dynamic()
            ? DynamicFragmentation(*sharded_->Snapshot())->ToString()
            : fragmentation_.ToString();
  }
  report.has_blocks = TracedExecution(report.decision.strategy, request.query,
                                      request.n,
                                      request.options.switch_threshold,
                                      &report);
  if (report.has_blocks && obs::kEnabled) {
    report.has_trace = true;
    report.trace.strategy = StrategyName(report.decision.strategy);
    report.trace.planned = !report.decision.forced;
    report.trace.predicted_scalar = report.decision.chosen.scalar;
    report.trace.predicted_quality = report.decision.chosen.predicted_quality;
  }
  return report;
}

}  // namespace moa
