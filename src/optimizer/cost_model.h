// Cost inputs and estimates shared by every physical top-N strategy
// (paper Step 3).
//
// "Using Moa, we have the means to handle all types of data in one algebra
//  ... This allows us to keep the cost model much simpler." Every strategy
// is costed in the same CostCounters currency the operators actually tick,
// so estimates and measurements are directly comparable (bench E9). The
// formulas live with each executor (exec/plan_hooks.h); the one optimizer
// that evaluates them is StrategyPlanner (optimizer/strategy_planner.h).
#ifndef MOA_OPTIMIZER_COST_MODEL_H_
#define MOA_OPTIMIZER_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/cost_ticker.h"
#include "exec/plan_hooks.h"
// PhysicalStrategy and the name/safety helpers live in the exec layer now;
// re-exported here for source compatibility with pre-exec callers.
#include "exec/strategy.h"
#include "optimizer/cardinality.h"

namespace moa {

/// Digests (query, n) into the inputs a strategy's registered cost hook
/// consumes: cardinalities from `est`, fragment split when `est` carries a
/// fragmentation, storage signals copied from `storage` (defaults =
/// neutral static in-memory configuration). StrategyPlanner's per-query
/// input digest.
StrategyCostInputs BuildCostInputs(const CardinalityEstimator& est,
                                   const Query& query, size_t n,
                                   const StrategyCostInputs& storage = {});

/// \brief Predicted work + scalar cost for one (strategy, query, n).
struct PlanCostEstimate {
  PhysicalStrategy strategy;
  CostCounters predicted;
  double scalar = 0.0;  ///< predicted.Scalar()

  std::string ToString() const;
};

}  // namespace moa

#endif  // MOA_OPTIMIZER_COST_MODEL_H_
