// Drives a mixed workload through every instrumented layer and dumps the
// metrics registry — the executable side of the observability layer and
// the binary CI diffs the metric-name inventory against docs/metrics.txt.
//
//   $ ./example_metrics_dump [--json | --prometheus | --names] [catalog-dir]
//
// --prometheus (default) renders the text exposition, --json the single
// JSON object, --names the sorted metric-family inventory (one per
// line). The workload touches: planned + forced static searches (query
// counters, latency histogram, planner predicted-vs-observed), a
// SearchBatch (batch counters), the catalog lifecycle ingest → flush →
// delete → merge (flush/merge counters + gauges), forced sparse probes
// (sparse-cache hits/misses), forced TA over the catalog (impact-cache
// hits/misses), and one deliberately failing SegmentReader::Open
// (failure counter).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "ir/query_gen.h"
#include "obs/metrics.h"
#include "storage/segment/segment_reader.h"

using namespace moa;

namespace {

DocTerms SynthDoc(Rng& rng, uint32_t vocab) {
  std::map<TermId, uint32_t> terms;
  while (terms.size() < 20) {
    terms.emplace(static_cast<TermId>(rng.Uniform(vocab)),
                  1 + static_cast<uint32_t>(rng.Uniform(3)));
  }
  return DocTerms(terms.begin(), terms.end());
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Output { kPrometheus, kJson, kNames };
  Output output = Output::kPrometheus;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      output = Output::kJson;
    } else if (std::strcmp(argv[i], "--prometheus") == 0) {
      output = Output::kPrometheus;
    } else if (std::strcmp(argv[i], "--names") == 0) {
      output = Output::kNames;
    } else {
      dir = argv[i];
    }
  }
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "metrics_dump_catalog")
              .string();
  }
  std::filesystem::remove_all(dir);

  DatabaseConfig config;
  config.collection.num_docs = 3000;
  config.collection.vocabulary = 6000;
  config.collection.mean_doc_length = 80;
  config.collection.seed = 4711;
  config.catalog_dir = dir;
  auto opened = MmDatabase::Open(config);
  if (!opened.ok()) return Fail("open", opened.status());
  MmDatabase& db = *opened.ValueOrDie();

  QueryWorkloadConfig qconfig;
  qconfig.num_queries = 12;
  qconfig.terms_per_query = 4;
  qconfig.seed = 7;
  const std::vector<Query> queries =
      GenerateQueries(db.collection(), qconfig).ValueOrDie();

  // 1. Static searches, planned and forced: per-strategy query counters,
  //    latency observations, planner predicted-vs-observed scalars.
  for (const Query& query : queries) {
    QueryRequest planned;
    planned.query = query;
    if (auto r = db.Search(planned); !r.ok()) return Fail("search", r.status());
    QueryRequest forced = planned;
    forced.options.strategy = PhysicalStrategy::kHeap;
    if (auto r = db.Search(forced); !r.ok()) return Fail("forced", r.status());
  }

  // Forced sparse probes populate the sparse-index cache (misses on the
  // first pass, hits on the second).
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      QueryRequest sparse;
      sparse.query = queries[i];
      sparse.options.strategy = PhysicalStrategy::kQualitySwitchSparse;
      sparse.options.quality_target = 0.0;
      if (auto r = db.Search(sparse); !r.ok()) {
        return Fail("sparse", r.status());
      }
    }
  }

  // 2. One batch: batch counters + wall-time histogram.
  std::vector<QueryRequest> batch;
  for (const Query& query : queries) batch.push_back(QueryRequest{query});
  if (auto r = db.SearchBatch(batch, /*parallelism=*/4); !r.ok()) {
    return Fail("batch", r.status());
  }

  // 3. Catalog lifecycle: ingest → flush → delete → ingest → flush →
  //    merge exercises flush/merge counters, bytes written and the
  //    segment/live-docs/tombstone-density gauges.
  Rng rng(2026);
  std::vector<DocTerms> fresh;
  for (int i = 0; i < 400; ++i) fresh.push_back(SynthDoc(rng, 6000));
  if (auto r = db.AddDocuments(fresh); !r.ok()) return Fail("add", r.status());
  if (Status s = db.Flush(); !s.ok()) return Fail("flush", s);
  if (Status s = db.DeleteDocument(0); !s.ok()) return Fail("delete", s);
  std::vector<DocTerms> more;
  for (int i = 0; i < 200; ++i) more.push_back(SynthDoc(rng, 6000));
  if (auto r = db.AddDocuments(more); !r.ok()) return Fail("add2", r.status());
  if (Status s = db.Flush(); !s.ok()) return Fail("flush2", s);
  if (auto r = db.Merge(); !r.ok()) return Fail("merge", r.status());
  for (const Query& query : queries) {
    if (auto r = db.Search(QueryRequest{query}); !r.ok()) {
      return Fail("dynamic search", r.status());
    }
  }
  // Forced TA reads the snapshot's cached impact orders (a miss on each
  // term's first use, hits on the repeat pass).
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      QueryRequest ta;
      ta.query = queries[i];
      ta.options.strategy = PhysicalStrategy::kFaginTA;
      if (auto r = db.Search(ta); !r.ok()) return Fail("ta", r.status());
    }
  }

  // 3b. Background maintenance: a second database with the maintenance
  //     loops attached. Ingest past the flush trigger lets the scheduler
  //     do the flushing/merging on the shared pool — registering the
  //     moa_bg_* counters — and WaitForMaintenance drains the jobs so
  //     the dump below is stable.
  {
    DatabaseConfig bg_config = config;
    bg_config.collection.num_docs = 400;
    bg_config.catalog_dir = dir + "_bg";
    bg_config.background_maintenance = true;
    bg_config.flush_trigger_docs = 64;
    bg_config.merge_trigger_segments = 3;
    bg_config.merge_fanin = 2;
    std::filesystem::remove_all(bg_config.catalog_dir);
    auto bg = MmDatabase::Open(bg_config);
    if (!bg.ok()) return Fail("bg open", bg.status());
    for (int i = 0; i < 300; ++i) {
      if (auto r = bg.ValueOrDie()->AddDocument(SynthDoc(rng, 6000));
          !r.ok()) {
        return Fail("bg add", r.status());
      }
    }
    if (Status s = bg.ValueOrDie()->WaitForMaintenance(); !s.ok()) {
      return Fail("bg maintenance", s);
    }
    std::filesystem::remove_all(bg_config.catalog_dir);
  }

  // 4. A sharded database: the scatter-gather searches register the
  //    moa_shard_* counters (shards visited/skipped and the skipped
  //    shards' posting volume).
  {
    DatabaseConfig sharded_config = config;
    sharded_config.collection.num_docs = 600;
    sharded_config.catalog_dir = dir + "_sharded";
    sharded_config.num_shards = 3;
    std::filesystem::remove_all(sharded_config.catalog_dir);
    auto sharded = MmDatabase::Open(sharded_config);
    if (!sharded.ok()) return Fail("sharded open", sharded.status());
    // First mutation seeds the sharded catalog from the collection and
    // flips to dynamic serving — only then does Search scatter-gather.
    if (auto r = sharded.ValueOrDie()->AddDocument(SynthDoc(rng, 6000));
        !r.ok()) {
      return Fail("sharded add", r.status());
    }
    for (size_t i = 0; i < 4; ++i) {
      if (auto r = sharded.ValueOrDie()->Search(QueryRequest{queries[i]});
          !r.ok()) {
        return Fail("sharded search", r.status());
      }
    }
    std::filesystem::remove_all(sharded_config.catalog_dir);
  }

  // 5. A segment open that must fail: the failure counter registers.
  {
    auto missing = SegmentReader::Open(dir + "/does_not_exist.moa");
    if (missing.ok()) {
      std::fprintf(stderr, "opening a missing segment unexpectedly worked\n");
      return 1;
    }
  }

  // 6. moa_fsync_failure_total registers lazily on the first *failed*
  //    fsync (storage/atomic_file.cc); touch it explicitly so the
  //    --names inventory is identical on healthy and unhealthy runs.
  obs::MetricsRegistry::Global().GetCounter("moa_fsync_failure_total");

  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  switch (output) {
    case Output::kPrometheus:
      std::fputs(registry.Render(obs::MetricsFormat::kPrometheus).c_str(),
                 stdout);
      break;
    case Output::kJson:
      std::fputs(registry.Render(obs::MetricsFormat::kJson).c_str(), stdout);
      break;
    case Output::kNames:
      for (const std::string& name : registry.MetricNames()) {
        std::printf("%s\n", name.c_str());
      }
      break;
  }
  std::filesystem::remove_all(dir);
  return 0;
}
