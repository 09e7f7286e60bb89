// ShardCoordinator: bound-aware scatter-gather top-N over a ShardedSnapshot.
//
// The engine's one dynamic query path: every catalog query, unsharded or
// sharded, runs through here. A one-shard snapshot (the unsharded
// catalog) is a single source: it plans and runs through PlanAndRun
// below, the same code the static spine uses, with no bound order, no
// gather and no shard ticks. For more than one shard, one query
//
//   1. computes each shard's aggregate upper bound — the sum of the query
//      terms' per-shard max impacts from the snapshot's impact cache — and
//      orders shards by descending bound (ties to the lower index);
//   2. plans per shard (each shard gets its own CardinalityEstimator over
//      the shard's *local* df and its own storage-signal inputs, so a
//      memtable-heavy shard can pick a different strategy than a merged
//      one) or applies the forced strategy;
//   3. visits shards in bound order in waves of `parallelism` on the
//      process-wide ThreadPool, merging each wave's per-shard top-N heaps
//      into the running global top-N (local ids mapped to global);
//   4. before each wave, skips every remaining shard whose bound is
//      *strictly* below the current global n-th score — such a shard
//      cannot contribute (a bound equal to the n-th could still win the
//      ascending-doc-id tie-break, so equality visits). Because shards
//      are visited in descending bound order, skipping is a suffix:
//      sequential visiting (parallelism 1) maximizes skips, wider waves
//      trade skip opportunities for latency;
//   5. seeds later shards' max-score evaluations with the running global
//      n-th score (MaxScoreOptions::initial_threshold + strict — the
//      distributed max-score refinement), so even a visited shard prunes
//      against what earlier shards already established.
//
// Work accounting: skipped shards tick CostCounters::shards_skipped and
// shard_postings_skipped (the skipped shards' local postings for the
// query terms — exactly the work a single catalog would have streamed);
// visited shards tick shards_visited. Per-shard execution costs are
// summed into the merged result's counters whether a shard ran inline or
// on a pool thread. The scatter/gather phases trace as
// kStageShardScatter / kStageShardGather on the engine thread.
//
// Exactness: for safe strategies whose reported scores are full
// deterministic sums (everything except fagin_nra's partial lower
// bounds), the merged result is bit-identical to single-catalog
// execution: per-shard scoring reads the snapshot's global statistics,
// term order follows global df, and the merge uses the library's
// (score desc, doc asc) order over mapped global ids.
#ifndef MOA_ENGINE_SHARD_COORDINATOR_H_
#define MOA_ENGINE_SHARD_COORDINATOR_H_

#include <memory>

#include "engine/database.h"
#include "storage/catalog/sharded_catalog.h"

namespace moa {

/// Plans `request` over one source (or obeys its forced strategy) and
/// executes it: the static spine and a one-shard snapshot. A forced
/// strategy takes the PlanForced fast path (no enumeration). With
/// `explain` true the planner always enumerates the full candidate table
/// into *decision_out (forced requests included) and execution is
/// skipped. `trace` installs a QueryTrace for this thread: the plan span
/// and the executor's stage spans attach to it.
Result<SearchResult> PlanAndRun(const StrategyPlanner& planner,
                                const ExecContext& context,
                                const QueryRequest& request, bool explain,
                                bool trace, PlanDecision* decision_out);

class ShardCoordinator {
 public:
  struct Options {
    /// Shards visited concurrently per wave. 0 = auto:
    /// min(num_shards, ThreadPool::DefaultParallelism()).
    size_t parallelism = 0;
    /// Fragmentation built from the snapshot's *global* df (term
    /// classification identical to a single catalog); required only when
    /// a fragment strategy can run, exactly like ExecContext.
    const Fragmentation* fragmentation = nullptr;
    /// When false, disables the bound-based shard skip and the n-th-score
    /// threshold seeding — every shard runs the full unseeded execution.
    /// The naive scatter-gather baseline for benchmarks and debugging;
    /// results are identical (the pruning is lossless), only work changes.
    bool bound_pruning = true;
  };

  /// Planner-driven scatter-gather: plans per shard, then executes
  /// bound-ordered with skipping and threshold seeding. With `explain`
  /// set, stops after planning; `decision_out` (optional) receives the
  /// full decision of the highest-bound shard. The result's estimate sums
  /// the per-shard predictions; its predicted_quality is the minimum
  /// across shards. One shard: PlanAndRun over ShardContext(snapshot, 0).
  static Result<SearchResult> Run(
      const std::shared_ptr<const ShardedSnapshot>& snapshot,
      const QueryRequest& request, bool explain, bool trace,
      PlanDecision* decision_out, const Options& options);

  /// Forced-strategy scatter-gather with no planner in the loop (the
  /// dynamic MmDatabase::Execute): runs `strategy` on every visited
  /// shard with `exec_options` (seeded per shard where applicable). One
  /// shard: a direct registry execution.
  static Result<TopNResult> Execute(
      const std::shared_ptr<const ShardedSnapshot>& snapshot,
      PhysicalStrategy strategy, const Query& query, size_t n,
      const ExecOptions& exec_options, const Options& options);

  /// The exec context of shard `shard`: local ids under the snapshot's
  /// global statistics, the shard's snapshot-scoped sparse cache, and
  /// `fragmentation` (borrowed; may be null when no fragment strategy
  /// runs). postings_owner pins the snapshot.
  static ExecContext ShardContext(
      const std::shared_ptr<const ShardedSnapshot>& snapshot, size_t shard,
      const Fragmentation* fragmentation);
};

}  // namespace moa

#endif  // MOA_ENGINE_SHARD_COORDINATOR_H_
