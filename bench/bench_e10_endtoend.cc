// E10 — the end-to-end goal: "a running optimizer tuned and tested for top
// N MM queries". Ablation: the cost-based planner against every fixed safe
// strategy, across query mixes and N. Expected shape: the optimizer tracks
// the best fixed strategy everywhere, while every fixed strategy loses
// somewhere — the argument for having an optimizer at all.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ir/query_gen.h"

namespace moa {
namespace {

const std::vector<Query>& MixFor(int mix) {
  switch (mix) {
    case 0: return benchutil::ZipfWorkload();
    default: return benchutil::Workload();
  }
}

void BM_OptimizerChoice(benchmark::State& state) {
  const int mix = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  MmDatabase& db = benchutil::Db();

  double optimizer_work = 0.0;
  double best_fixed_work = 0.0;
  double worst_fixed_work = 0.0;
  for (auto _ : state) {
    optimizer_work = 0.0;
    // Fixed safe strategies to ablate against, selected by registry name.
    const std::vector<PhysicalStrategy> fixed = {
        benchutil::StrategyOrDie("full_sort"),
        benchutil::StrategyOrDie("heap"),
        benchutil::StrategyOrDie("fagin_ta"),
        benchutil::StrategyOrDie("fagin_nra"),
        benchutil::StrategyOrDie("quality_switch_full")};
    std::vector<double> fixed_work(fixed.size(), 0.0);
    for (const Query& q : MixFor(mix)) {
      auto r = db.Search(QueryRequest{q, n});
      optimizer_work += r.ValueOrDie().top.stats.cost.Scalar();
      for (size_t i = 0; i < fixed.size(); ++i) {
        auto rf = db.Execute(fixed[i], q, n);
        fixed_work[i] += rf.ValueOrDie().stats.cost.Scalar();
      }
    }
    best_fixed_work = *std::min_element(fixed_work.begin(), fixed_work.end());
    worst_fixed_work = *std::max_element(fixed_work.begin(), fixed_work.end());
  }
  state.SetLabel(mix == 0 ? "zipf_queries" : "mixed_queries");
  state.counters["optimizer_work"] = optimizer_work;
  state.counters["best_fixed_work"] = best_fixed_work;
  state.counters["worst_fixed_work"] = worst_fixed_work;
  state.counters["vs_best_pct"] = 100.0 * optimizer_work / best_fixed_work;
  state.counters["vs_worst_pct"] = 100.0 * optimizer_work / worst_fixed_work;
}
BENCHMARK(BM_OptimizerChoice)
    ->Args({0, 10})->Args({0, 100})
    ->Args({1, 10})->Args({1, 100})
    ->Unit(benchmark::kMillisecond);

/// The unsafe frontier: allowing unsafe strategies, how much work does the
/// planner shave relative to safe-only, per N? (The crossover where the
/// fragment-only plan stops being chosen is the interesting output.)
void BM_UnsafeFrontier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MmDatabase& db = benchutil::Db();
  double safe_work = 0.0, unsafe_work = 0.0;
  int unsafe_chosen = 0;
  for (auto _ : state) {
    safe_work = unsafe_work = 0.0;
    unsafe_chosen = 0;
    for (const Query& q : benchutil::Workload()) {
      auto rs = db.Search(QueryRequest{q, n});
      safe_work += rs.ValueOrDie().top.stats.cost.Scalar();
      QueryOptions unsafe_opts;
      unsafe_opts.quality_target = 0.0;
      auto ru = db.Search(QueryRequest{q, n, unsafe_opts});
      unsafe_work += ru.ValueOrDie().top.stats.cost.Scalar();
      unsafe_chosen += IsSafeStrategy(ru.ValueOrDie().strategy) ? 0 : 1;
    }
  }
  state.counters["safe_work"] = safe_work;
  state.counters["unsafe_work"] = unsafe_work;
  state.counters["saving_pct"] = 100.0 * (1.0 - unsafe_work / safe_work);
  state.counters["unsafe_chosen_pct"] =
      100.0 * unsafe_chosen /
      static_cast<double>(benchutil::Workload().size());
}
BENCHMARK(BM_UnsafeFrontier)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
