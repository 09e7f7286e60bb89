// E9 — Step 3: the centralized cost model. For every strategy, compares the
// model's predicted scalar cost with the measured scalar cost over the
// workload, and reports whether the *ranking* of strategies matches (which
// is what a planner needs; absolute calibration matters less).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "optimizer/strategy_planner.h"

namespace moa {
namespace {

/// A strategy's predicted scalar cost under neutral storage inputs (the
/// static in-memory file the bench database serves).
double PredictedScalar(const StrategyPlanner& planner,
                       PhysicalStrategy strategy, const Query& query,
                       size_t n) {
  PlanRequest request;
  request.n = n;
  request.force = strategy;
  return planner.PlanForced(query, request).ValueOrDie().chosen.scalar;
}

void BM_CostModelPerStrategy(benchmark::State& state) {
  const auto strategy =
      static_cast<PhysicalStrategy>(state.range(0));
  MmDatabase& db = benchutil::Db();
  CardinalityEstimator est(&db.file(), &db.fragmentation());
  const StrategyPlanner planner(&est, StrategyCostInputs{});

  double predicted = 0.0, measured = 0.0;
  for (auto _ : state) {
    predicted = measured = 0.0;
    for (const Query& q : benchutil::Workload()) {
      predicted += PredictedScalar(planner, strategy, q, 10);
      auto r = db.Execute(strategy, q, 10);
      measured += r.ValueOrDie().stats.cost.Scalar();
    }
  }
  state.SetLabel(StrategyName(strategy));
  state.counters["predicted"] = predicted;
  state.counters["measured"] = measured;
  state.counters["ratio"] = measured > 0 ? predicted / measured : 0.0;
}
// Range bounds come from the exec registry: new registered strategies are
// swept automatically.
BENCHMARK(BM_CostModelPerStrategy)
    ->DenseRange(0, static_cast<int>(AllStrategies().size()) - 1, 1)
    ->Unit(benchmark::kMillisecond);

/// Rank agreement: Spearman correlation between predicted and measured
/// strategy orderings (averaged over queries). The planner only needs the
/// cheap strategies ranked first.
void BM_CostModelRankAgreement(benchmark::State& state) {
  MmDatabase& db = benchutil::Db();
  CardinalityEstimator est(&db.file(), &db.fragmentation());
  const StrategyPlanner planner(&est, StrategyCostInputs{});
  const auto strategies = AllStrategies();

  double mean_rho = 0.0;
  double top1_hits = 0.0;
  for (auto _ : state) {
    mean_rho = 0.0;
    top1_hits = 0.0;
    for (const Query& q : benchutil::Workload()) {
      std::vector<double> pred, meas;
      for (PhysicalStrategy s : strategies) {
        pred.push_back(PredictedScalar(planner, s, q, 10));
        meas.push_back(
            db.Execute(s, q, 10).ValueOrDie().stats.cost.Scalar());
      }
      // Spearman rho via rank vectors.
      auto ranks = [](const std::vector<double>& v) {
        std::vector<size_t> idx(v.size());
        for (size_t i = 0; i < v.size(); ++i) idx[i] = i;
        std::sort(idx.begin(), idx.end(),
                  [&](size_t a, size_t b) { return v[a] < v[b]; });
        std::vector<double> r(v.size());
        for (size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
        return r;
      };
      const auto rp = ranks(pred);
      const auto rm = ranks(meas);
      double d2 = 0.0;
      for (size_t i = 0; i < rp.size(); ++i) {
        d2 += (rp[i] - rm[i]) * (rp[i] - rm[i]);
      }
      const double k = static_cast<double>(rp.size());
      mean_rho += 1.0 - 6.0 * d2 / (k * (k * k - 1.0));
      // Did the model's cheapest match the measured cheapest?
      const size_t pbest = static_cast<size_t>(
          std::min_element(pred.begin(), pred.end()) - pred.begin());
      const size_t mbest = static_cast<size_t>(
          std::min_element(meas.begin(), meas.end()) - meas.begin());
      top1_hits += (pbest == mbest) ? 1.0 : 0.0;
    }
    mean_rho /= static_cast<double>(benchutil::Workload().size());
    top1_hits /= static_cast<double>(benchutil::Workload().size());
  }
  state.counters["spearman_rho"] = mean_rho;
  state.counters["top1_agreement_pct"] = 100.0 * top1_hits;
}
BENCHMARK(BM_CostModelRankAgreement)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
