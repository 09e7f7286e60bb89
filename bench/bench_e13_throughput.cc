// E13 — batch throughput scaling: the serving-layer question the paper's
// per-query work reduction feeds into. One shared read-only database, many
// concurrent queries; per (strategy, parallelism): QPS, p50/p95/p99 query
// latency, and the speedup headroom left by the shared sparse cache.
//
// Expected shape on a P-core machine: QPS grows near-linearly to P for
// every strategy (all shared state is read-only or build-once), with the
// absolute QPS ordering following each strategy's per-query work. On a
// 1-core container the sweep degenerates to overhead measurement — the
// scaling claim needs real cores.
//
// MOA_BENCH_TINY=1 shrinks the collection and workload so the CI smoke job
// finishes in seconds.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_util.h"
#include "common/thread_pool.h"

namespace moa {
namespace {

bool Tiny() { return std::getenv("MOA_BENCH_TINY") != nullptr; }

/// Separate from benchutil::Db(): the throughput sweep wants a
/// CI-shrinkable collection and a workload large enough to keep 8 workers
/// busy (the shared 30-query workload is too short a batch).
MmDatabase& ThroughputDb() {
  static MmDatabase* db = [] {
    DatabaseConfig config;
    config.collection.num_docs = Tiny() ? 4000 : 20000;
    config.collection.vocabulary = Tiny() ? 6000 : 30000;
    config.collection.mean_doc_length = Tiny() ? 80 : 150;
    config.collection.zipf_skew = 1.0;
    config.collection.seed = 900913;
    config.fragmentation.small_volume_fraction = 0.05;
    config.scoring = ScoringModelKind::kBm25;
    return MmDatabase::Open(config).ValueOrDie().release();
  }();
  return *db;
}

const std::vector<Query>& ThroughputWorkload() {
  static const std::vector<Query>* queries = [] {
    QueryWorkloadConfig config;
    config.num_queries = Tiny() ? 32 : 128;
    config.terms_per_query = 4;
    config.distribution = QueryTermDistribution::kMixed;
    config.seed = 1313;
    return new std::vector<Query>(
        GenerateQueries(ThroughputDb().collection(), config).ValueOrDie());
  }();
  return *queries;
}

/// Tail-term (selective) query class: uniform over occurring terms of a
/// Zipf collection draws mostly rare terms, so per-query volume is small
/// and sorted/random-access strategies get their best case. This is the
/// class where the cost-based planner should beat a forced max-score
/// default, not just match it.
const std::vector<Query>& SelectiveWorkload() {
  static const std::vector<Query>* queries = [] {
    QueryWorkloadConfig config;
    config.num_queries = Tiny() ? 32 : 128;
    config.terms_per_query = 4;
    config.distribution = QueryTermDistribution::kUniform;
    config.seed = 424242;
    return new std::vector<Query>(
        GenerateQueries(ThroughputDb().collection(), config).ValueOrDie());
  }();
  return *queries;
}

void ReportBatch(benchmark::State& state, const BatchStats& last) {
  state.counters["threads"] = static_cast<double>(last.parallelism);
  state.counters["qps"] = last.qps;
  state.counters["p50_ms"] = last.p50_millis;
  state.counters["p95_ms"] = last.p95_millis;
  state.counters["p99_ms"] = last.p99_millis;
}

void RunBatchOver(benchmark::State& state, const std::vector<Query>& queries,
                  const char* strategy_name) {
  const size_t parallelism = static_cast<size_t>(state.range(0));
  MmDatabase& db = ThroughputDb();

  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const Query& q : queries) {
    QueryRequest request;
    request.query = q;
    request.n = 10;
    request.options.strategy = benchutil::StrategyOrDie(strategy_name);
    request.options.quality_target = 0.0;
    requests.push_back(request);
  }

  BatchStats last;
  for (auto _ : state) {
    auto r = db.SearchBatch(requests, parallelism);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = r.ValueOrDie().stats;
    benchmark::DoNotOptimize(r.ValueOrDie().results.data());
  }
  ReportBatch(state, last);
}

void RunBatch(benchmark::State& state, const char* strategy_name) {
  RunBatchOver(state, ThroughputWorkload(), strategy_name);
}

/// Planner-on: no forced strategy — the cost-based planner chooses per
/// query under `quality_target`.
void RunBatchPlanned(benchmark::State& state,
                     const std::vector<Query>& queries,
                     double quality_target) {
  const size_t parallelism = static_cast<size_t>(state.range(0));
  MmDatabase& db = ThroughputDb();

  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const Query& q : queries) {
    QueryRequest request;
    request.query = q;
    request.n = 10;
    request.options.quality_target = quality_target;
    requests.push_back(request);
  }

  BatchStats last;
  for (auto _ : state) {
    auto r = db.SearchBatch(requests, parallelism);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = r.ValueOrDie().stats;
    benchmark::DoNotOptimize(r.ValueOrDie().results.data());
  }
  ReportBatch(state, last);
}

void BM_BatchHeap(benchmark::State& state) { RunBatch(state, "heap"); }
void BM_BatchFaginTA(benchmark::State& state) { RunBatch(state, "fagin_ta"); }
void BM_BatchFaginNRA(benchmark::State& state) {
  RunBatch(state, "fagin_nra");
}
void BM_BatchMaxScore(benchmark::State& state) {
  RunBatch(state, "maxscore");
}
void BM_BatchQualitySwitchFull(benchmark::State& state) {
  RunBatch(state, "quality_switch_full");
}
void BM_BatchQualitySwitchSparse(benchmark::State& state) {
  RunBatch(state, "quality_switch_sparse");
}
void BM_BatchPlanned(benchmark::State& state) {
  RunBatchPlanned(state, ThroughputWorkload(), 1.0);
}
void BM_BatchPlannedQuality90(benchmark::State& state) {
  RunBatchPlanned(state, ThroughputWorkload(), 0.9);
}
void BM_BatchSelectiveMaxScore(benchmark::State& state) {
  RunBatchOver(state, SelectiveWorkload(), "maxscore");
}
void BM_BatchSelectivePlanned(benchmark::State& state) {
  RunBatchPlanned(state, SelectiveWorkload(), 1.0);
}

void ParallelismSweep(benchmark::internal::Benchmark* b) {
  // 1 -> hardware_concurrency in powers of two, always including 8 so the
  // acceptance sweep (QPS at 8 vs 1) is present even when the bench runs
  // on a bigger machine.
  const size_t hw = ThreadPool::DefaultParallelism();
  for (size_t p = 1; p <= hw; p *= 2) b->Arg(static_cast<int>(p));
  if ((hw & (hw - 1)) != 0) b->Arg(static_cast<int>(hw));
  if (hw < 8) b->Arg(8);
  b->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(BM_BatchHeap)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchFaginTA)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchFaginNRA)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchMaxScore)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchQualitySwitchFull)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchQualitySwitchSparse)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchPlanned)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchPlannedQuality90)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchSelectiveMaxScore)->Apply(ParallelismSweep);
BENCHMARK(BM_BatchSelectivePlanned)->Apply(ParallelismSweep);

}  // namespace
}  // namespace moa

BENCHMARK_MAIN();
