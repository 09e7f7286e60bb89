// Per-strategy planner hooks: the cost and quality formulas a strategy
// registers alongside its executor factory.
//
// The Step-3 cost model used to keep one big switch over all strategies in
// optimizer/cost_model.cc; that knowledge now lives with each executor
// (exec/executors/*.cc) as a PlannerHooks bundle on its StrategyRegistry
// entry. One consumer reads the hooks through the registry:
// StrategyPlanner (optimizer/strategy_planner.h). With neutral
// StrategyCostInputs{} it reproduces the historical static in-memory
// formulas (calibrated against the e5/e9/e11 benches); with signals derived
// from the live snapshot (codec decode cost, tombstone density, segment
// count, fragment-directory presence) the per-query choice is
// storage-aware.
//
// Formulas are pure functions of StrategyCostInputs: no executor state, no
// storage access — planning a query must never touch a posting.
#ifndef MOA_EXEC_PLAN_HOOKS_H_
#define MOA_EXEC_PLAN_HOOKS_H_

#include <cmath>
#include <cstdint>

#include "common/cost_ticker.h"

namespace moa {

/// \brief Everything a cost/quality hook may consult, pre-digested.
///
/// Cardinality fields come from the CardinalityEstimator over *live*
/// statistics (a catalog snapshot's df, or the static file's). Storage
/// fields default to the neutral static in-memory configuration, where
/// every factor is exactly 1 (or 0): with defaults, Seq/Sorted/Random are
/// the identity and the formulas reproduce the historical cost model
/// bit-for-bit.
struct StrategyCostInputs {
  // ---- query cardinality (live statistics) ----
  double volume = 0.0;        ///< total postings volume of the query
  double candidates = 1.0;    ///< expected distinct candidates, >= 1
  double n = 1.0;             ///< requested top-N, >= 1
  double active_terms = 1.0;  ///< query terms with df > 0, >= 1

  // ---- fragment split (zeros when no fragmentation is installed) ----
  bool has_fragmentation = false;
  double small_volume = 0.0;        ///< volume in the small fragment
  double large_volume = 0.0;        ///< volume in the large fragment
  double large_active_terms = 0.0;  ///< active terms in the large fragment

  // ---- storage signals (neutral = static in-memory inverted file) ----
  /// Per-posting sequential read multiplier: >1 when postings are decoded
  /// from compressed blocks (varbyte costs more than bit-packed).
  double decode_factor = 1.0;
  /// Dead postings streamed-and-skipped per live posting (tombstoned docs
  /// keep their slots until a merge reclaims them).
  double tombstone_overhead = 0.0;
  /// Point-lookup multiplier: locating the owning component of a doc id
  /// across a multi-segment snapshot makes random access costlier.
  double random_access_factor = 1.0;
  /// Impact-ordered (sorted) access multiplier: 1 when the storage serves
  /// it natively (in-memory impact orders, MOAFRG01 fragment directory);
  /// larger when sorted access must decode and sort whole lists.
  double sorted_access_factor = 1.0;

  double log2_candidates() const { return std::log2(candidates + 2.0); }
  double log2_n() const { return std::log2(n + 2.0); }

  /// Cost of sequentially streaming `postings` live postings.
  double Seq(double postings) const {
    return postings * decode_factor * (1.0 + tombstone_overhead);
  }
  /// Cost of consuming `postings` postings in impact order.
  double Sorted(double postings) const {
    return Seq(postings) * sorted_access_factor;
  }
  /// Cost of `probes` point lookups.
  double Random(double probes) const {
    return probes * random_access_factor;
  }
};

/// Builds the counter bundle the way the historical cost model did
/// (truncating casts included, so legacy estimates stay bit-identical).
inline CostCounters MakeCostEstimate(double seq, double rnd, double score,
                                     double cmp, double bytes) {
  CostCounters c;
  c.sequential_reads = static_cast<int64_t>(seq);
  c.random_reads = static_cast<int64_t>(rnd);
  c.score_evals = static_cast<int64_t>(score);
  c.compares = static_cast<int64_t>(cmp);
  c.bytes_touched = static_cast<int64_t>(bytes);
  return c;
}

/// Predicts the work of one execution. Pure; must not touch storage.
using StrategyCostFn = CostCounters (*)(const StrategyCostInputs&);

/// Predicts answer quality as expected overlap@n against the exact top-N
/// in [0, 1]. Only unsafe strategies register one; safe strategies are
/// exact by definition (the planner uses 1.0 when the hook is null).
using StrategyQualityFn = double (*)(const StrategyCostInputs&);

/// \brief Planner-facing metadata registered with every strategy.
struct PlannerHooks {
  /// Null = the planner cannot cost this strategy and never picks it
  /// un-forced (custom strategies without a model stay forced-only).
  StrategyCostFn cost = nullptr;
  /// Null = exact (predicted quality 1.0).
  StrategyQualityFn quality = nullptr;
  /// Requires ExecContext::fragmentation (the planner also needs the
  /// fragment split to cost it).
  bool needs_fragmentation = false;
  /// Requires >= 1 query term with df > 0 to execute.
  bool needs_active_terms = false;
};

}  // namespace moa

#endif  // MOA_EXEC_PLAN_HOOKS_H_
