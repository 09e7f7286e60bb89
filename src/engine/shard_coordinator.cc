#include "engine/shard_coordinator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cost_ticker.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exec/registry.h"
#include "obs/query_trace.h"
#include "optimizer/cardinality.h"
#include "topn/maxscore.h"

namespace moa {

namespace {

/// One shard in visit order: its index and aggregate query upper bound.
struct ShardOrder {
  size_t shard = 0;
  double bound = 0.0;
};

/// Shards by descending query bound; stable sort keeps equal-bound shards
/// in ascending index order, making the visit order fully deterministic.
std::vector<ShardOrder> BoundOrder(const ShardedSnapshot& snapshot,
                                   const Query& query) {
  std::vector<ShardOrder> order(snapshot.num_shards());
  for (size_t s = 0; s < order.size(); ++s) {
    order[s] = ShardOrder{s, snapshot.ShardQueryBound(s, query)};
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const ShardOrder& a, const ShardOrder& b) {
                     return a.bound > b.bound;
                   });
  return order;
}

size_t EffectiveParallelism(size_t requested, size_t num_shards) {
  const size_t p =
      requested == 0 ? std::min(num_shards, ThreadPool::DefaultParallelism())
                     : requested;
  return std::max<size_t>(1, std::min(p, num_shards));
}

/// The shard's live posting volume for the query's terms — what a skipped
/// shard would have streamed; the shard_postings_skipped currency.
int64_t LocalQueryPostings(const CatalogState& state, const Query& query) {
  const std::vector<uint32_t>& df = state.stats().df;
  int64_t total = 0;
  for (TermId t : query.terms) {
    if (static_cast<size_t>(t) < df.size()) total += df[t];
  }
  return total;
}

/// Overlays the running global n-th score onto a max-score-family
/// execution as MaxScoreOptions::initial_threshold (the distributed
/// max-score seed). Strategies of any other option family run `base`
/// unchanged — the seed is a pruning hint, not a semantic change, and
/// only the max-score family consumes it. Strict engagement is forced
/// with the seed (required by the initial_threshold contract).
ExecOptions SeededOptions(const ExecOptions& base, PhysicalStrategy strategy,
                          double seed) {
  if (seed <= 0.0) return base;
  const StrategyRegistry::Entry* entry =
      StrategyRegistry::Global().Find(strategy);
  if (entry == nullptr ||
      entry->accepts_options != ExecOptionsIndexOf<MaxScoreOptions>()) {
    return base;
  }
  ExecOptions seeded = base;
  MaxScoreOptions ms;
  if (const MaxScoreOptions* existing = base.GetIf<MaxScoreOptions>()) {
    ms = *existing;
  }
  ms.initial_threshold = std::max(ms.initial_threshold, seed);
  ms.strict = true;
  seeded.strategy_options = ms;
  return seeded;
}

/// The gather core shared by the planned and forced paths: visits shards
/// in `order` in waves of `parallelism`, skipping every remaining shard
/// whose bound is strictly below the merged n-th score, and merges the
/// per-shard top-N heaps under the global (score desc, doc asc) order.
///
/// Cost accounting: an outer CostScope on the calling thread captures the
/// gather-side work (merge compares, skip bookkeeping) plus every shard
/// execution that ran inline on this thread; executions that ran on pool
/// helpers tick their own thread-local frames, so their registry-reported
/// per-execution costs are added explicitly. The sum is exactly the work
/// done on the query's behalf, with nothing double-counted.
Result<TopNResult> ScatterGatherExec(
    const std::shared_ptr<const ShardedSnapshot>& snapshot,
    const std::vector<ShardOrder>& order,
    const std::vector<PhysicalStrategy>& strategy_by_shard, const Query& query,
    size_t n, const ExecOptions& base_options, const Fragmentation* frag,
    size_t parallelism, bool bound_pruning) {
  const size_t num_shards = snapshot->num_shards();
  const std::thread::id caller_tid = std::this_thread::get_id();

  CostScope outer;
  TopNResult merged;
  CostCounters helper_cost;
  bool skipped_any = false;

  size_t next = 0;
  while (next < order.size() && n > 0) {
    // Bound-based suffix skip: shards are in descending bound order, so
    // the first shard that cannot beat the current n-th score proves the
    // same for every shard after it. Equality still visits — a tying
    // document with a lower global id would win the (score desc, doc asc)
    // tie-break.
    const double kth =
        merged.items.size() >= n ? merged.items.back().score : 0.0;
    if (bound_pruning && merged.items.size() >= n && order[next].bound < kth) {
      for (size_t i = next; i < order.size(); ++i) {
        CostTicker::TickShardSkipped();
        CostTicker::TickShardPostingsSkipped(LocalQueryPostings(
            snapshot->shard_state(order[i].shard), query));
      }
      skipped_any = true;
      break;
    }

    const size_t wave = std::min(parallelism, order.size() - next);
    const double seed =
        bound_pruning && merged.items.size() >= n ? kth : 0.0;

    std::vector<std::optional<Result<TopNResult>>> results(wave);
    std::vector<std::thread::id> ran_on(wave);
    const auto body = [&](size_t i) {
      const size_t s = order[next + i].shard;
      ran_on[i] = std::this_thread::get_id();
      results[i] = StrategyRegistry::Global().Execute(
          strategy_by_shard[s],
          ShardCoordinator::ShardContext(snapshot, s, frag), query, n,
          SeededOptions(base_options, strategy_by_shard[s], seed));
    };
    if (wave == 1) {
      body(0);
    } else {
      ThreadPool::Shared().ParallelFor(wave, body, wave - 1);
    }

    obs::TraceSpan span(obs::kStageShardGather);
    for (size_t i = 0; i < wave; ++i) {
      const size_t s = order[next + i].shard;
      Result<TopNResult>& r = *results[i];
      if (!r.ok()) return r.status();
      TopNResult shard_top = std::move(r).ValueOrDie();
      CostTicker::TickShardVisited();
      if (ran_on[i] != caller_tid) helper_cost += shard_top.stats.cost;
      merged.stats.sorted_accesses += shard_top.stats.sorted_accesses;
      merged.stats.random_accesses += shard_top.stats.random_accesses;
      merged.stats.candidates += shard_top.stats.candidates;
      merged.stats.stopped_early |= shard_top.stats.stopped_early;
      merged.stats.restarts += shard_top.stats.restarts;
      merged.stats.used_large_fragment |= shard_top.stats.used_large_fragment;
      for (ScoredDoc& sd : shard_top.items) {
        sd.doc = ShardedCatalog::GlobalOf(sd.doc, s, num_shards);
        merged.items.push_back(sd);
      }
    }
    std::sort(merged.items.begin(), merged.items.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) {
                CostTicker::TickCompare();
                return ScoredDocLess(a, b);
              });
    if (merged.items.size() > n) merged.items.resize(n);
    next += wave;
  }

  merged.stats.stopped_early |= skipped_any;
  merged.stats.cost = outer.Snapshot() + helper_cost;
  return merged;
}

}  // namespace

Result<SearchResult> PlanAndRun(const StrategyPlanner& planner,
                                const ExecContext& context,
                                const QueryRequest& request, bool explain,
                                bool trace, PlanDecision* decision_out) {
  // When sampled, activates per-query tracing for this thread: the plan
  // span below and the stage spans the executors open all attach here
  // (spans against no current trace are no-ops). Stage CostCounters are
  // ticker deltas at span boundaries — the per-posting loop never sees
  // the trace. Compiles to nothing under MOA_OBS=OFF.
  std::optional<obs::QueryTrace> qtrace;
  if (trace) qtrace.emplace();

  PlanRequest preq;
  preq.n = request.n;
  preq.quality_target = request.options.quality_target;
  preq.force = request.options.strategy;

  SearchResult out;
  PlanCandidate chosen;
  {
    obs::TraceSpan span(obs::kStagePlan);
    if (!explain && !preq.force.has_value()) {
      // Unforced hot path: same choice as Plan(), no candidate table.
      Result<PlanCandidate> choice = planner.PlanChoice(request.query, preq);
      if (!choice.ok()) return choice.status();
      chosen = std::move(choice).ValueOrDie();
      out.planned = true;
    } else {
      Result<PlanDecision> plan = (preq.force.has_value() && !explain)
                                      ? planner.PlanForced(request.query, preq)
                                      : planner.Plan(request.query, preq);
      if (!plan.ok()) return plan.status();
      PlanDecision decision = std::move(plan).ValueOrDie();
      chosen = decision.chosen;
      out.planned = !decision.forced;
      if (decision_out != nullptr) *decision_out = std::move(decision);
    }
  }

  out.strategy = chosen.strategy;
  out.estimate.strategy = chosen.strategy;
  out.estimate.predicted = chosen.predicted;
  out.estimate.scalar = chosen.scalar;
  out.predicted_quality = chosen.predicted_quality;
  if (explain) return out;

  ExecOptions eopts;
  eopts.switch_threshold = request.options.switch_threshold;
  WallTimer timer;
  Result<TopNResult> top = StrategyRegistry::Global().Execute(
      out.strategy, context, request.query, request.n, eopts);
  if (!top.ok()) return top.status();
  out.wall_millis = timer.ElapsedMillis();
  out.top = std::move(top).ValueOrDie();

  if (qtrace.has_value()) {
    out.trace = qtrace->Finish();
    out.trace.strategy = StrategyName(out.strategy);
    out.trace.planned = out.planned;
    out.trace.predicted_scalar = chosen.scalar;
    out.trace.predicted_quality = chosen.predicted_quality;
    out.traced = true;
  }
  return out;
}

ExecContext ShardCoordinator::ShardContext(
    const std::shared_ptr<const ShardedSnapshot>& snapshot, size_t shard,
    const Fragmentation* fragmentation) {
  ExecContext context;
  context.model = &snapshot->shard_model(shard);
  context.postings = &snapshot->shard_source(shard);
  context.fragmentation = fragmentation;
  context.sparse_cache = &snapshot->shard_sparse_cache(shard);
  context.postings_owner = snapshot;
  return context;
}

Result<SearchResult> ShardCoordinator::Run(
    const std::shared_ptr<const ShardedSnapshot>& snapshot,
    const QueryRequest& request, bool explain, bool trace,
    PlanDecision* decision_out, const Options& options) {
  const size_t num_shards = snapshot->num_shards();
  if (num_shards == 1) {
    // The unsharded catalog: one source, so no bound order, no gather and
    // no shard ticks — it plans and runs like the static spine.
    const CatalogState& state = snapshot->shard_state(0);
    const CardinalityEstimator estimator(
        &state.stats().df, static_cast<int64_t>(state.stats().num_live_docs),
        options.fragmentation);
    const StrategyPlanner planner(
        &estimator, StorageInputsFor(snapshot->shard_composition(0)));
    return PlanAndRun(planner, ShardContext(snapshot, 0, options.fragmentation),
                      request, explain, trace, decision_out);
  }

  // Mirrors PlanAndRun: when sampled, a QueryTrace is installed for this
  // thread — the scatter/gather spans and any inline shard execution's
  // stage spans attach here; executions on pool helpers have no installed
  // trace and report through their result's CostCounters instead.
  std::optional<obs::QueryTrace> qtrace;
  if (trace) qtrace.emplace();

  PlanRequest preq;
  preq.n = request.n;
  preq.quality_target = request.options.quality_target;
  preq.force = request.options.strategy;
  // NRA reports drain-order lower-bound scores, not full sums; merging
  // such scores across shards would compare lower bounds from one shard
  // against exact scores from another, so cost-based choice never picks
  // it under sharding. Forcing it remains allowed (set-level contract).
  preq.exclude.push_back(PhysicalStrategy::kFaginNRA);

  SearchResult out;
  std::vector<ShardOrder> order;
  std::vector<PhysicalStrategy> strategies(num_shards, PhysicalStrategy::kHeap);
  {
    obs::TraceSpan span(obs::kStageShardScatter);
    order = BoundOrder(*snapshot, request.query);

    // Per-shard planning: each shard is costed from its own local df and
    // storage signals, so a memtable-heavy shard can legitimately pick a
    // different strategy than a merged one. The highest-bound shard is
    // planned first and supplies the result's headline strategy (and the
    // full decision table when asked); the estimate sums every shard's
    // prediction and the predicted quality is the worst across shards.
    bool first = true;
    for (const ShardOrder& so : order) {
      const CatalogState& state = snapshot->shard_state(so.shard);
      const CardinalityEstimator estimator(
          &state.stats().df,
          static_cast<int64_t>(state.stats().num_live_docs),
          options.fragmentation);
      const StrategyPlanner planner(
          &estimator, StorageInputsFor(snapshot->shard_composition(so.shard)));
      PlanCandidate chosen;
      if (first && (explain || preq.force.has_value())) {
        Result<PlanDecision> plan = (preq.force.has_value() && !explain)
                                        ? planner.PlanForced(request.query, preq)
                                        : planner.Plan(request.query, preq);
        if (!plan.ok()) return plan.status();
        PlanDecision decision = std::move(plan).ValueOrDie();
        chosen = decision.chosen;
        out.planned = !decision.forced;
        if (decision_out != nullptr) *decision_out = std::move(decision);
      } else if (preq.force.has_value()) {
        Result<PlanDecision> plan = planner.PlanForced(request.query, preq);
        if (!plan.ok()) return plan.status();
        chosen = std::move(plan).ValueOrDie().chosen;
        out.planned = false;
      } else {
        Result<PlanCandidate> choice = planner.PlanChoice(request.query, preq);
        if (!choice.ok()) return choice.status();
        chosen = std::move(choice).ValueOrDie();
        out.planned = true;
      }
      strategies[so.shard] = chosen.strategy;
      if (first) {
        out.strategy = chosen.strategy;
        out.estimate.strategy = chosen.strategy;
      }
      out.estimate.predicted += chosen.predicted;
      out.estimate.scalar += chosen.scalar;
      out.predicted_quality =
          std::min(out.predicted_quality, chosen.predicted_quality);
      first = false;
    }
  }
  if (explain) return out;

  ExecOptions eopts;
  eopts.switch_threshold = request.options.switch_threshold;
  WallTimer timer;
  Result<TopNResult> top = ScatterGatherExec(
      snapshot, order, strategies, request.query, request.n, eopts,
      options.fragmentation,
      EffectiveParallelism(options.parallelism, num_shards),
      options.bound_pruning);
  if (!top.ok()) return top.status();
  out.wall_millis = timer.ElapsedMillis();
  out.top = std::move(top).ValueOrDie();

  if (qtrace.has_value()) {
    out.trace = qtrace->Finish();
    out.trace.strategy = StrategyName(out.strategy);
    out.trace.planned = out.planned;
    out.trace.predicted_scalar = out.estimate.scalar;
    out.trace.predicted_quality = out.predicted_quality;
    out.traced = true;
  }
  return out;
}

Result<TopNResult> ShardCoordinator::Execute(
    const std::shared_ptr<const ShardedSnapshot>& snapshot,
    PhysicalStrategy strategy, const Query& query, size_t n,
    const ExecOptions& exec_options, const Options& options) {
  const size_t num_shards = snapshot->num_shards();
  if (num_shards == 1) {
    return StrategyRegistry::Global().Execute(
        strategy, ShardContext(snapshot, 0, options.fragmentation), query, n,
        exec_options);
  }
  std::vector<ShardOrder> order;
  {
    obs::TraceSpan span(obs::kStageShardScatter);
    order = BoundOrder(*snapshot, query);
  }
  const std::vector<PhysicalStrategy> strategies(num_shards, strategy);
  return ScatterGatherExec(snapshot, order, strategies, query, n, exec_options,
                           options.fragmentation,
                           EffectiveParallelism(options.parallelism,
                                                num_shards),
                           options.bound_pruning);
}

}  // namespace moa
