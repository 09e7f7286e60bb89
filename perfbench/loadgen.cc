// Benchmark load generator: runs one workload of the repository
// benchmark through MmDatabase's public API and prints its raw
// measurements as one JSON object on stdout. run.py builds this program,
// runs it and derives the named metrics from that object; README.md lists
// the workloads and metrics.
//
//   perfbench_loadgen --workload catalog_mixed --seed 1 --seconds 15
//                     --trace 0 --dir <scratch dir> [--spans <file>]
//
// Every run: set the database up kSetupReps times (the last set-up is
// kept), check every distinct query against MmDatabase::GroundTruth, then
// load it for `--seconds` with the workload's closed-loop query clients
// (plus, on ingest_mixed, one open-loop writer). The read-only workloads
// follow the timed window with a closed-loop writer-only probe; every
// workload ends by reopening the database from its catalog directory and
// checking that the acknowledged writes survived. With --trace 1 the load
// runs twice, `--seconds / 2` each: once untraced (the reference for the
// tracing overhead) and once with trace_every = 1 on a fresh set-up,
// followed by the cursor and planner probes.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cost_ticker.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/database.h"
#include "ir/query_gen.h"
#include "obs/metrics.h"
#include "optimizer/cardinality.h"
#include "optimizer/strategy_planner.h"

namespace moa {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kCollectionSeed = 900913;
constexpr uint32_t kNumDocs = 20000;
constexpr uint32_t kVocabulary = 30000;
/// Queries per generated set. About 1% of kUniform queries draw a head
/// term, so in a set of 1024 their count decides whether p99 lands on
/// them; 8192 makes that share, and the p50/p99 of a set, stable across
/// seeds.
constexpr uint32_t kQuerySetSize = 8192;
constexpr size_t kTopN = 10;
/// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetupReps = 3;
/// Ground-truth documents fetched past n, so that a run of tied scores
/// crossing the n-th place can be checked by id as well.
constexpr size_t kTieSlack = 16;
/// Threads of the (untimed) correctness gate.
constexpr size_t kGateThreads = 3;
/// ingest_mixed's open-loop writer: kGroupDocs-document groups plus one
/// delete, offered at kWriteDocsPerSecond.
constexpr size_t kGroupDocs = 16;
constexpr double kWriteDocsPerSecond = 1000.0;
/// Writer-input pool: groups cycle through this many generated documents.
constexpr uint32_t kWriterPoolDocs = 4096;
/// Groups of the closed-loop writer-only probe after a read-only window.
constexpr size_t kProbeGroups = 640;
/// Queries re-checked against GroundTruth after the reopen.
constexpr size_t kReopenSample = 64;
/// Queries whose terms the cursor probe walks.
constexpr size_t kCursorProbeQueries = 128;
/// Clients time a snapshot every this many queries (in every window, so
/// the bench's own work is the same traced and untraced).
constexpr size_t kSnapshotEvery = 16;
/// Equal sub-windows each measured phase is cut into; run.py reports the
/// median over them. Stalls cluster in time (a merge delays a run of
/// consecutive writes), so a median over slices keeps one stall from
/// setting a whole run's p99.
constexpr int kSubWindows = 5;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", what.c_str());
  std::exit(2);
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ workloads

struct Workload {
  const char* name;
  size_t num_shards;
  QueryTermDistribution distribution;
  /// Closed-loop query clients. Under sharding each Search fans its shards
  /// out to min(shards, CPUs) - 1 helpers of the shared pool, so one
  /// client keeps clients + helpers at the CPU count; two clients
  /// oversubscribed the CPUs and the p99 followed the scheduler.
  size_t clients;
  bool ingest;  ///< open-loop writer during the timed window
};

constexpr Workload kWorkloads[] = {
    {"catalog_mixed", 1, QueryTermDistribution::kMixed, 2, false},
    {"sharded_selective", 4, QueryTermDistribution::kUniform, 1, false},
    {"ingest_mixed", 1, QueryTermDistribution::kMixed, 2, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Die("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr || args.dir.empty()) {
    Die("usage: --workload <name> --dir <path> [--seed n] [--seconds s] "
        "[--trace 0|1] [--spans file]");
  }
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

CollectionConfig CollectionShape(uint32_t num_docs, uint64_t seed) {
  CollectionConfig c;
  c.num_docs = num_docs;
  c.vocabulary = kVocabulary;
  c.zipf_skew = 1.0;
  c.mean_doc_length = 150;
  c.seed = seed;
  return c;
}

DatabaseConfig ConfigFor(const Workload& w, const std::string& dir,
                         size_t trace_every) {
  DatabaseConfig config;
  config.collection = CollectionShape(kNumDocs, kCollectionSeed);
  config.scoring = ScoringModelKind::kBm25;
  config.catalog_dir = dir;
  config.num_shards = w.num_shards;
  config.wal_enabled = true;
  config.wal_fsync_every = 1;
  // Default triggers. Maintenance is event-driven, so it stays idle
  // through the read-only windows and serves their write probe exactly as
  // it serves ingest_mixed's writer (without it the probe's memtable, and
  // with it every commit's copy-on-write cost, grows without bound).
  config.background_maintenance = true;
  config.trace_every = trace_every;
  return config;
}

/// Per-document (term, tf) compositions of a generated collection.
std::vector<DocTerms> Transpose(const InvertedFile& file) {
  std::vector<DocTerms> docs(file.num_docs());
  for (TermId t = 0; t < file.num_terms(); ++t) {
    const PostingList& list = file.list(t);
    for (size_t i = 0; i < list.size(); ++i) {
      docs[list[i].doc].emplace_back(t, list[i].tf);
    }
  }
  return docs;
}

/// Open → seed → Flush → Merge to one segment (per shard); returns the
/// database ready for its first request.
std::unique_ptr<MmDatabase> Setup(const Workload& w, const std::string& dir,
                                  size_t trace_every, double* seconds) {
  std::filesystem::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<MmDatabase>> opened =
      MmDatabase::Open(ConfigFor(w, dir, trace_every));
  MustOk(opened.status(), "open");
  std::unique_ptr<MmDatabase> db = std::move(opened).ValueOrDie();
  MustOk(db->Flush(), "flush");  // the first mutation seeds the catalog
  MustOk(db->Merge().status(), "merge");
  MustOk(db->WaitForMaintenance(), "maintenance");
  *seconds = SecondsSince(t0);
  return db;
}

/// Live statistics of whichever catalog spine serves the database.
struct LiveStats {
  uint64_t live_docs = 0;
  uint64_t live_pairs = 0;  ///< Σ df: (term, tf) pairs of live documents
};

LiveStats Live(const MmDatabase& db) {
  LiveStats out;
  const CatalogStats* stats = nullptr;
  std::shared_ptr<const void> pin;
  if (const ShardedCatalog* sharded = db.sharded_catalog()) {
    auto snapshot = sharded->Snapshot();
    stats = &snapshot->stats();
    pin = snapshot;
  } else if (const IndexCatalog* catalog = db.catalog()) {
    auto state = catalog->Snapshot();
    stats = &state->stats();
    pin = state;
  } else {
    Die("database is not serving a catalog");
  }
  out.live_docs = stats->num_live_docs;
  for (uint32_t df : stats->df) out.live_pairs += df;
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Returns freed heap to the OS and restarts the kernel's peak-RSS mark,
/// so the peak covers the kept set-up and its load, not the discarded
/// set-ups before it.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last ResetPeakRss (VmHWM), in KiB.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  Die("no VmHWM in /proc/self/status");
}

QueryRequest Request(const Query& q) {
  QueryRequest r;
  r.query = q;
  r.n = kTopN;
  r.options.quality_target = 1.0;
  return r;
}

// ----------------------------------------------------- correctness gate

/// Same answer as the exhaustive ground truth: the same top-n scores in
/// ScoredDocLess order, and the same documents. Scores are compared to
/// 1e-9 relative (strategies sum a document's term weights in different
/// orders), so documents whose scores tie within that tolerance may come
/// in either order: within each run of tied truth scores the answer's ids
/// must be distinct and drawn from the run, which for a run that ends
/// inside the top n means the same set. `truth` holds the top
/// n + kTieSlack, so a run crossing the n-th place is checked against its
/// continuation; only a run that reaches past the slack skips the id test.
bool MatchesTruth(const std::vector<ScoredDoc>& got,
                  const std::vector<ScoredDoc>& truth, size_t n) {
  if (got.size() != std::min(n, truth.size())) return false;
  const auto tied = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  for (size_t i = 0; i < got.size(); ++i) {
    if (!tied(got[i].score, truth[i].score)) return false;
    if (i > 0 && ScoredDocLess(got[i], got[i - 1])) return false;
  }
  const bool truth_complete = truth.size() < n + kTieSlack;
  for (size_t a = 0; a < got.size();) {
    size_t b = a + 1;  // truth[a, b) is one run of tied scores
    while (b < truth.size() && tied(truth[b].score, truth[a].score)) ++b;
    const size_t end = std::min(b, got.size());
    if (b < truth.size() || truth_complete) {
      std::vector<DocId> want, have;
      for (size_t i = a; i < b; ++i) want.push_back(truth[i].doc);
      for (size_t i = a; i < end; ++i) have.push_back(got[i].doc);
      std::sort(want.begin(), want.end());
      std::sort(have.begin(), have.end());
      if (!std::includes(want.begin(), want.end(), have.begin(), have.end())) {
        return false;
      }
    }
    a = end;
  }
  return true;
}

struct GateResult {
  int64_t checked = 0;
  int64_t failed = 0;  ///< errors + answers that differ from the truth
};

GateResult CheckQueries(const MmDatabase& db, const std::vector<Query>& qs) {
  std::atomic<size_t> next{0};
  std::atomic<int64_t> failed{0};
  auto body = [&] {
    for (size_t i = next++; i < qs.size(); i = next++) {
      Result<SearchResult> r = db.Search(Request(qs[i]));
      if (!r.ok() ||
          !MatchesTruth(r.ValueOrDie().top.items,
                        db.GroundTruth(qs[i], kTopN + kTieSlack), kTopN)) {
        ++failed;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kGateThreads; ++c) threads.emplace_back(body);
  for (std::thread& t : threads) t.join();
  return {static_cast<int64_t>(qs.size()), failed.load()};
}

// ------------------------------------------------------------ load phase

/// Stage index for the span aggregates; kOther collects unknown names.
enum Stage { kPlan, kCursorOpen, kAccumulate, kHeapMerge, kScatter, kGather,
             kOther, kNumStages };
constexpr const char* kStageNames[kNumStages] = {
    "plan", "cursor_open", "accumulate", "heap_merge",
    "shard_scatter", "shard_gather", "other"};

Stage StageOf(const char* name) {
  for (int s = 0; s < kOther; ++s) {
    if (std::strcmp(name, kStageNames[s]) == 0) return static_cast<Stage>(s);
  }
  return kOther;
}

struct SpanRecord {
  uint64_t request;
  int stage;  ///< -1 = the bench's own Search span
  double start_us;  ///< relative to the window start; < 0 when unknown
  double dur_us;
};

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<double> end_s;  ///< completion, seconds into the window
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t results = 0;
  CostCounters cost;
  std::map<std::string, int64_t> strategies;
  std::vector<double> snapshot_us;
  std::vector<double> segments;
  // Traced window only.
  int64_t traced = 0;
  int64_t overlapping = 0;  ///< Σ stage spans exceeded the trace's wall
  double traced_search_ms = 0.0;
  double stage_ms[kNumStages] = {};
  CostCounters stage_cost[kNumStages];
  double predicted_scalar = 0.0;
  double observed_scalar = 0.0;
  std::vector<SpanRecord> spans;
};

struct WriterStats {
  std::vector<double> group_ms;   ///< due time → acknowledgement
  std::vector<double> group_end_s;  ///< acknowledgement, seconds from t0
  std::vector<double> commit_ms;  ///< the AddDocuments call alone
  std::vector<double> lag_ms;     ///< how late each group was sent
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t docs_acked = 0;
  int64_t deletes_acked = 0;
  int64_t user_bytes = 0;  ///< 8 bytes per (term, tf) pair acknowledged
  double seconds = 0.0;    ///< first due time → last acknowledgement
};

/// Writer input: a cycling document pool of the collection's shape plus
/// the seeded ids the writer deletes, one per group, in a seeded order
/// without repeats.
struct WriterInput {
  std::vector<DocTerms> pool;
  std::vector<DocId> victims;
  size_t next_doc = 0;
  size_t next_victim = 0;
};

WriterInput MakeWriterInput(uint64_t seed) {
  WriterInput in;
  Result<Collection> coll =
      Collection::Generate(CollectionShape(kWriterPoolDocs, seed * 7919 + 1));
  MustOk(coll.status(), "writer pool");
  in.pool = Transpose(coll.ValueOrDie().inverted_file());
  in.victims.resize(kNumDocs);
  for (uint32_t i = 0; i < kNumDocs; ++i) in.victims[i] = i;
  Rng rng(seed ^ 0x5eedde1e7eULL);
  for (size_t i = in.victims.size() - 1; i > 0; --i) {
    std::swap(in.victims[i], in.victims[rng.Uniform(i + 1)]);
  }
  return in;
}

/// Runs groups of kGroupDocs adds + one delete from `t0` until `deadline`
/// or `max_groups`: open loop at kWriteDocsPerSecond (each group due on
/// schedule), or closed loop (each group due when the previous one was
/// acknowledged). The closed loop settles background maintenance after
/// every flush trigger's worth of documents, so each commit sees the same
/// memtable fill and no flush runs beside it; left free-running, the
/// flush timing decided how far the memtable, and with it every commit's
/// copy-on-write cost, overshot the trigger, and the probe's throughput
/// varied by a third between runs.
void RunWriter(MmDatabase* db, WriterInput* in, Clock::time_point t0,
               Clock::time_point deadline, size_t max_groups, bool open_loop,
               WriterStats* out) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kGroupDocs / kWriteDocsPerSecond));
  const size_t settle_groups =
      std::max<size_t>(1, DatabaseConfig{}.flush_trigger_docs / kGroupDocs);
  Clock::time_point last_ack = t0;
  for (size_t k = 0; k < max_groups; ++k) {
    const Clock::time_point due =
        open_loop ? t0 + interval * static_cast<int64_t>(k) : Clock::now();
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    out->lag_ms.push_back(MillisBetween(due, sent));

    std::vector<DocTerms> group;
    int64_t pairs = 0;
    for (size_t d = 0; d < kGroupDocs; ++d) {
      group.push_back(in->pool[in->next_doc++ % in->pool.size()]);
      pairs += static_cast<int64_t>(group.back().size());
    }
    ++out->attempted;
    const Result<DocId> added = db->AddDocuments(group);
    const Clock::time_point committed = Clock::now();
    out->commit_ms.push_back(MillisBetween(sent, committed));
    bool ok = added.ok();
    if (ok) {
      out->docs_acked += static_cast<int64_t>(kGroupDocs);
      out->user_bytes += 8 * pairs;
    } else {
      ++out->failed;
    }
    if (in->next_victim < in->victims.size()) {
      ++out->attempted;
      if (db->DeleteDocument(in->victims[in->next_victim++]).ok()) {
        ++out->deletes_acked;
      } else {
        ++out->failed;
        ok = false;
      }
    }
    last_ack = Clock::now();
    if (ok) {
      out->group_ms.push_back(MillisBetween(due, last_ack));
      out->group_end_s.push_back(MillisBetween(t0, last_ack) / 1e3);
    }
    if (!open_loop && (k + 1) % settle_groups == 0) {
      ++out->attempted;
      if (!db->WaitForMaintenance().ok()) ++out->failed;
    }
  }
  // A writer that kept up is measured over the whole window; one with a
  // backlog until its last acknowledgement.
  out->seconds =
      MillisBetween(t0, std::max(last_ack, std::min(deadline, Clock::now()))) /
      1e3;
}

/// Times one snapshot acquisition of the serving catalog; returns its
/// segment count (summed over shards).
size_t TimedSnapshot(const MmDatabase& db, double* micros) {
  if (const ShardedCatalog* sharded = db.sharded_catalog()) {
    const Clock::time_point t = Clock::now();
    const std::shared_ptr<const ShardedSnapshot> s = sharded->Snapshot();
    *micros = MillisBetween(t, Clock::now()) * 1e3;
    size_t segments = 0;
    for (size_t i = 0; i < s->num_shards(); ++i) {
      segments += s->shard_composition(i).num_segments;
    }
    return segments;
  }
  const Clock::time_point t = Clock::now();
  const std::shared_ptr<const CatalogReadView> view =
      db.catalog()->OpenReadView();
  *micros = MillisBetween(t, Clock::now()) * 1e3;
  return view->state().Composition().num_segments;
}

void RunClient(const MmDatabase& db, const std::vector<Query>& queries,
               size_t client, size_t clients, bool traced,
               Clock::time_point t0, Clock::time_point deadline,
               ClientStats* out) {
  out->latency_ms.reserve(1 << 16);
  out->end_s.reserve(1 << 16);
  size_t i = client * queries.size() / clients;
  for (uint64_t n = 0;; ++n, i = (i + 1) % queries.size()) {
    const Clock::time_point start = Clock::now();
    if (start >= deadline) break;
    if (n % kSnapshotEvery == 0) {
      double us = 0.0;
      out->segments.push_back(static_cast<double>(TimedSnapshot(db, &us)));
      out->snapshot_us.push_back(us);
    }
    const Clock::time_point begin = Clock::now();
    ++out->attempted;
    Result<SearchResult> r = db.Search(Request(queries[i]));
    const Clock::time_point end = Clock::now();
    if (!r.ok()) {
      ++out->failed;
      continue;
    }
    const double ms = MillisBetween(begin, end);
    out->latency_ms.push_back(ms);
    out->end_s.push_back(MillisBetween(t0, end) / 1e3);
    const SearchResult& res = r.ValueOrDie();
    out->cost += res.top.stats.cost;
    out->results += static_cast<int64_t>(res.top.items.size());
    ++out->strategies[StrategyName(res.strategy)];
    if (!traced || !res.traced) continue;

    const uint64_t request = (static_cast<uint64_t>(client) << 40) | n;
    out->spans.push_back(
        {request, -1, MillisBetween(t0, begin) * 1e3, ms * 1e3});
    ++out->traced;
    out->traced_search_ms += ms;
    out->predicted_scalar += res.trace.predicted_scalar;
    out->observed_scalar += res.trace.observed_scalar();
    double span_sum = 0.0;
    for (const obs::TraceSpanData& span : res.trace.spans) {
      const Stage s = StageOf(span.stage);
      out->stage_ms[s] += span.wall_millis;
      out->stage_cost[s] += span.cost;
      span_sum += span.wall_millis;
      out->spans.push_back({request, s, -1.0, span.wall_millis * 1e3});
    }
    if (span_sum > res.trace.wall_millis) ++out->overlapping;
  }
}

struct LoadResult {
  std::vector<ClientStats> clients;
  WriterStats writer;
  double seconds = 0.0;
  std::string registry_before;
  std::string registry_after;
};

LoadResult RunLoad(MmDatabase* db, const std::vector<Query>& queries,
                   size_t clients, WriterInput* writer_input, double seconds,
                   bool traced) {
  LoadResult out;
  out.clients.resize(clients);
  out.registry_before =
      obs::MetricsRegistry::Global().Render(obs::MetricsFormat::kJson);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, std::cref(*db), std::cref(queries), c,
                         clients, traced, t0, deadline, &out.clients[c]);
  }
  if (writer_input != nullptr) {
    threads.emplace_back(RunWriter, db, writer_input, t0, deadline,
                         static_cast<size_t>(-1), /*open_loop=*/true,
                         &out.writer);
  }
  for (std::thread& t : threads) t.join();
  out.seconds = SecondsSince(t0);
  out.registry_after =
      obs::MetricsRegistry::Global().Render(obs::MetricsFormat::kJson);
  return out;
}

// ----------------------------------------------------------------- probes

struct CursorProbe {
  int64_t cursors = 0;
  double open_us = 0.0;
  int64_t postings = 0;
  double scan_ns = 0.0;
  int64_t scan_blocks = 0;
  int64_t advance_calls = 0;
  double advance_ns = 0.0;
  int64_t advance_blocks = 0;
  int64_t shallow_calls = 0;
  double shallow_ns = 0.0;
  int64_t shallow_blocks = 0;
};

/// Walks the query terms' cursors on the live snapshot: OpenCursor + full
/// next() scans, then advance_to / shallow_advance over the doc ids of
/// each query's rarest term (the intersection pattern of the max-score
/// family), with the CostCounters block counts of each pass.
CursorProbe ProbeCursors(const MmDatabase& db,
                         const std::vector<Query>& queries) {
  // Pin the snapshot the probe reads: shard 0 under sharding.
  std::shared_ptr<const void> pin;
  const PostingSource* source = nullptr;
  if (const ShardedCatalog* sharded = db.sharded_catalog()) {
    auto snapshot = sharded->Snapshot();
    source = &snapshot->shard_source(0);
    pin = snapshot;
  } else {
    auto view = db.catalog()->OpenReadView();
    source = view.get();
    pin = view;
  }
  CursorProbe p;
  const size_t count = std::min(kCursorProbeQueries, queries.size());
  for (size_t qi = 0; qi < count; ++qi) {
    const Query& q = queries[qi];
    std::vector<std::vector<DocId>> docs(q.terms.size());
    for (size_t k = 0; k < q.terms.size(); ++k) {
      CostScope scope;
      WallTimer open;
      std::unique_ptr<PostingCursor> c = source->OpenCursor(q.terms[k]);
      p.open_us += open.ElapsedMicros();
      ++p.cursors;
      WallTimer scan;
      for (; !c->at_end(); c->next()) docs[k].push_back(c->doc());
      p.scan_ns += static_cast<double>(scan.ElapsedNanos());
      p.postings += static_cast<int64_t>(docs[k].size());
      p.scan_blocks += scope.Snapshot().blocks_decoded;
    }
    size_t rarest = 0;
    for (size_t k = 1; k < docs.size(); ++k) {
      if (docs[k].size() < docs[rarest].size()) rarest = k;
    }
    for (size_t k = 0; k < q.terms.size(); ++k) {
      if (k == rarest) continue;
      for (const bool shallow : {false, true}) {
        std::unique_ptr<PostingCursor> c = source->OpenCursor(q.terms[k]);
        CostScope scope;
        WallTimer timer;
        int64_t calls = 0;
        for (DocId target : docs[rarest]) {
          if (shallow) {
            c->shallow_advance(target);
            if (c->block_last_doc() == kEndDoc) break;
          } else {
            c->advance_to(target);
            if (c->at_end()) break;
          }
          ++calls;
        }
        const double ns = static_cast<double>(timer.ElapsedNanos());
        const int64_t blocks = scope.Snapshot().blocks_decoded;
        (shallow ? p.shallow_calls : p.advance_calls) += calls;
        (shallow ? p.shallow_ns : p.advance_ns) += ns;
        (shallow ? p.shallow_blocks : p.advance_blocks) += blocks;
      }
    }
  }
  return p;
}

struct PlanProbe {
  int64_t queries = 0;
  double plan_ms = 0.0;
  int64_t failed = 0;
};

/// Times StrategyPlanner::PlanChoice on the same inputs the engine plans
/// from (live df, live doc count, storage signals of the snapshot's
/// composition), per shard under sharding where the coordinator plans
/// every shard and emits no plan span of its own.
PlanProbe ProbePlanner(const MmDatabase& db,
                       const std::vector<Query>& queries) {
  struct Target {
    const CatalogState* state;
    CatalogComposition composition;
  };
  std::vector<Target> targets;
  std::shared_ptr<const void> pin;
  PlanRequest preq;
  preq.n = kTopN;
  preq.quality_target = 1.0;
  if (const ShardedCatalog* sharded = db.sharded_catalog()) {
    auto snapshot = sharded->Snapshot();
    for (size_t s = 0; s < snapshot->num_shards(); ++s) {
      targets.push_back(
          {&snapshot->shard_state(s), snapshot->shard_composition(s)});
    }
    if (snapshot->num_shards() > 1) {
      preq.exclude.push_back(PhysicalStrategy::kFaginNRA);
    }
    pin = snapshot;
  } else {
    auto state = db.catalog()->Snapshot();
    targets.push_back({state.get(), state->Composition()});
    pin = state;
  }
  std::vector<std::unique_ptr<CardinalityEstimator>> estimators;
  std::vector<std::unique_ptr<StrategyPlanner>> planners;
  for (const Target& t : targets) {
    estimators.push_back(std::make_unique<CardinalityEstimator>(
        &t.state->stats().df,
        static_cast<int64_t>(t.state->stats().num_live_docs)));
    planners.push_back(std::make_unique<StrategyPlanner>(
        estimators.back().get(), StorageInputsFor(t.composition)));
  }
  PlanProbe p;
  for (const Query& q : queries) {
    WallTimer timer;
    for (const auto& planner : planners) {
      if (!planner->PlanChoice(q, preq).ok()) ++p.failed;
    }
    p.plan_ms += timer.ElapsedMillis();
    ++p.queries;
  }
  return p;
}

// ------------------------------------------------------------ JSON output

class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os_ << buf;
    return *this;
  }
  Json& Int(int64_t v) {
    Sep();
    os_ << v;
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    os_ << '"' << v << '"';
    return *this;
  }
  Json& Raw(const std::string& v) {
    Sep();
    os_ << v;
    return *this;
  }
  Json& Open(char c) {
    Sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  void Sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

/// Exact order statistic (nearest rank) of `v`; sorts it.
double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  return (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)];
}

void EmitDistribution(Json* j, const std::string& key, std::vector<double> v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  j->Key(key).Open('{');
  j->Key("count").Int(static_cast<int64_t>(v.size()));
  j->Key("mean").Num(v.empty() ? 0.0 : sum / v.size());
  j->Key("p50").Num(Percentile(&v, 0.50));
  j->Key("p99").Num(Percentile(&v, 0.99));
  j->Key("max").Num(v.empty() ? 0.0 : v.back());
  j->Close('}');
}

/// Rate (samples × `per_sample` per second), p50 and p99 of the samples
/// completing in each of kSubWindows equal slices of [0, seconds);
/// completions past the end land in the last slice.
void EmitWindows(Json* j, const std::vector<double>& end_s,
                 const std::vector<double>& values, double seconds,
                 double per_sample) {
  std::vector<std::vector<double>> slices(kSubWindows);
  for (size_t i = 0; i < values.size(); ++i) {
    const int w = static_cast<int>(end_s[i] / seconds * kSubWindows);
    slices[std::clamp(w, 0, kSubWindows - 1)].push_back(values[i]);
  }
  j->Key("windows").Open('[');
  for (std::vector<double>& v : slices) {
    j->Open('{');
    j->Key("rate").Num(v.size() * per_sample / (seconds / kSubWindows));
    j->Key("p50").Num(Percentile(&v, 0.50));
    j->Key("p99").Num(Percentile(&v, 0.99));
    j->Close('}');
  }
  j->Close(']');
}

void EmitCost(Json* j, const std::string& key, const CostCounters& c) {
  j->Key(key).Open('{');
  j->Key("sequential_reads").Int(c.sequential_reads);
  j->Key("random_reads").Int(c.random_reads);
  j->Key("score_evals").Int(c.score_evals);
  j->Key("compares").Int(c.compares);
  j->Key("blocks_decoded").Int(c.blocks_decoded);
  j->Key("blocks_skipped").Int(c.blocks_skipped);
  j->Key("shards_visited").Int(c.shards_visited);
  j->Key("shards_skipped").Int(c.shards_skipped);
  j->Key("shard_postings_skipped").Int(c.shard_postings_skipped);
  j->Key("scalar").Num(c.Scalar());
  j->Close('}');
}

void EmitWriter(Json* j, const WriterStats& w, const std::string& before,
                const std::string& after) {
  j->Key("writer").Open('{');
  j->Key("attempted").Int(w.attempted);
  j->Key("failed").Int(w.failed);
  j->Key("docs_acked").Int(w.docs_acked);
  j->Key("deletes_acked").Int(w.deletes_acked);
  j->Key("user_bytes").Int(w.user_bytes);
  j->Key("seconds").Num(w.seconds);
  EmitDistribution(j, "group_ms", w.group_ms);
  EmitWindows(j, w.group_end_s, w.group_ms, w.seconds, kGroupDocs);
  EmitDistribution(j, "commit_ms", w.commit_ms);
  EmitDistribution(j, "lag_ms", w.lag_ms);
  j->Key("registry_before").Raw(before);
  j->Key("registry_after").Raw(after);
  j->Close('}');
}

/// The read side of one load window, all clients merged.
void EmitSearch(Json* j, const std::string& key, const LoadResult& load) {
  std::vector<double> lat, end_s;
  int64_t attempted = 0, failed = 0, results = 0;
  CostCounters cost;
  std::map<std::string, int64_t> strategies;
  for (const ClientStats& c : load.clients) {
    lat.insert(lat.end(), c.latency_ms.begin(), c.latency_ms.end());
    end_s.insert(end_s.end(), c.end_s.begin(), c.end_s.end());
    attempted += c.attempted;
    failed += c.failed;
    results += c.results;
    cost += c.cost;
    for (const auto& [name, n] : c.strategies) strategies[name] += n;
  }
  j->Key(key).Open('{');
  j->Key("seconds").Num(load.seconds);
  j->Key("attempted").Int(attempted);
  j->Key("failed").Int(failed);
  j->Key("completed").Int(static_cast<int64_t>(lat.size()));
  j->Key("results").Int(results);
  EmitWindows(j, end_s, lat, load.seconds, 1.0);
  EmitDistribution(j, "latency_ms", lat);
  EmitCost(j, "cost", cost);
  j->Key("strategies").Open('{');
  for (const auto& [name, n] : strategies) j->Key(name).Int(n);
  j->Close('}');
  j->Key("registry_before").Raw(load.registry_before);
  j->Key("registry_after").Raw(load.registry_after);
  j->Close('}');
}

void EmitTrace(Json* j, const LoadResult& load) {
  int64_t traced = 0, overlapping = 0;
  double search_ms = 0.0, predicted = 0.0, observed = 0.0;
  double stage_ms[kNumStages] = {};
  CostCounters stage_cost[kNumStages];
  std::vector<double> snapshot_us, segments;
  for (const ClientStats& c : load.clients) {
    traced += c.traced;
    overlapping += c.overlapping;
    search_ms += c.traced_search_ms;
    predicted += c.predicted_scalar;
    observed += c.observed_scalar;
    for (int s = 0; s < kNumStages; ++s) {
      stage_ms[s] += c.stage_ms[s];
      stage_cost[s] += c.stage_cost[s];
    }
    snapshot_us.insert(snapshot_us.end(), c.snapshot_us.begin(),
                       c.snapshot_us.end());
    segments.insert(segments.end(), c.segments.begin(), c.segments.end());
  }
  j->Key("trace").Open('{');
  j->Key("traced").Int(traced);
  j->Key("overlapping").Int(overlapping);
  j->Key("search_ms").Num(search_ms);
  j->Key("predicted_scalar").Num(predicted);
  j->Key("observed_scalar").Num(observed);
  j->Key("stage_ms").Open('{');
  for (int s = 0; s < kNumStages; ++s) j->Key(kStageNames[s]).Num(stage_ms[s]);
  j->Close('}');
  j->Key("stage_cost").Open('{');
  for (int s = 0; s < kNumStages; ++s) {
    EmitCost(j, kStageNames[s], stage_cost[s]);
  }
  j->Close('}');
  EmitDistribution(j, "snapshot_us", snapshot_us);
  EmitDistribution(j, "segments", segments);
  j->Close('}');
}

/// Spans stay in memory during the window and are written out here:
/// one CSV row per span; engine stage spans are children of the bench's
/// Search span with the same request id (the engine exports no start
/// offsets, so their start column is empty).
void WriteSpans(const std::string& path, const LoadResult& load) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  out << "request,parent,name,start_us,dur_us\n";
  char buf[160];
  for (const ClientStats& c : load.clients) {
    for (const SpanRecord& s : c.spans) {
      if (s.stage < 0) {
        std::snprintf(buf, sizeof buf, "%llu,,search,%.3f,%.3f\n",
                      static_cast<unsigned long long>(s.request), s.start_us,
                      s.dur_us);
      } else {
        std::snprintf(buf, sizeof buf, "%llu,search,%s,,%.3f\n",
                      static_cast<unsigned long long>(s.request),
                      kStageNames[s.stage], s.dur_us);
      }
      out << buf;
    }
  }
}

// ------------------------------------------------------------------ main

std::vector<Query> Distinct(std::vector<Query> qs) {
  std::vector<Query> out;
  std::set<std::vector<TermId>> seen;
  for (Query& q : qs) {
    std::vector<TermId> key = q.terms;
    std::sort(key.begin(), key.end());
    if (seen.insert(std::move(key)).second) out.push_back(std::move(q));
  }
  return out;
}

struct DurabilityCheck {
  bool maintenance_ok = false;
  int64_t expected_live = 0;
  int64_t live_after_reopen = 0;
  GateResult sample;
  double space_dir_bytes = 0.0;
  double space_user_bytes = 0.0;
  double reopen_s = 0.0;
};

/// Settles maintenance, measures space, destroys the database and reopens
/// it from its catalog directory: the live count must equal what the
/// acknowledged writes imply, and a query sample must match GroundTruth.
DurabilityCheck Reopen(std::unique_ptr<MmDatabase>* db, const Workload& w,
                       const std::string& dir, size_t trace_every,
                       int64_t expected_live,
                       const std::vector<Query>& sample) {
  DurabilityCheck d;
  d.maintenance_ok = (*db)->WaitForMaintenance().ok();
  d.expected_live = expected_live;
  const LiveStats live = Live(**db);
  d.space_dir_bytes = static_cast<double>(DirBytes(dir));
  d.space_user_bytes = 8.0 * static_cast<double>(live.live_pairs);
  db->reset();
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<MmDatabase>> opened =
      MmDatabase::Open(ConfigFor(w, dir, trace_every));
  MustOk(opened.status(), "reopen");
  *db = std::move(opened).ValueOrDie();
  MustOk((*db)->Flush(), "recover");  // the first mutation recovers the dir
  d.reopen_s = SecondsSince(t0);
  d.live_after_reopen = static_cast<int64_t>(Live(**db).live_docs);
  d.sample = CheckQueries(**db, sample);
  return d;
}

void EmitGate(Json* j, const std::string& key, const GateResult& g) {
  j->Key(key).Open('{');
  j->Key("checked").Int(g.checked);
  j->Key("failed").Int(g.failed);
  j->Close('}');
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  std::filesystem::create_directories(args.dir);
  const std::string db_dir = args.dir + "/catalog";

  // Set-up, repeated; the last database serves the (first) window.
  std::vector<double> setup_s;
  std::unique_ptr<MmDatabase> db;
  const size_t reps = args.trace ? 1 : kSetupReps;
  for (size_t r = 0; r < reps; ++r) {
    db.reset();
    if (r + 1 == reps) ResetPeakRss();
    double s = 0.0;
    db = Setup(w, db_dir, 0, &s);
    setup_s.push_back(s);
  }

  // Inputs, from the seed: the query set and the writer's documents.
  QueryWorkloadConfig qconfig;
  qconfig.num_queries = kQuerySetSize;
  qconfig.terms_per_query = 4;
  qconfig.distribution = w.distribution;
  qconfig.seed = args.seed;
  Result<std::vector<Query>> generated =
      GenerateQueries(db->collection(), qconfig);
  MustOk(generated.status(), "queries");
  const std::vector<Query> queries = generated.ValueOrDie();
  const std::vector<Query> distinct = Distinct(queries);
  const std::vector<Query> sample(
      distinct.begin(),
      distinct.begin() + std::min(kReopenSample, distinct.size()));
  WriterInput writer_input = MakeWriterInput(args.seed);

  Json j;
  j.Open('{');
  j.Key("workload").Str(w.name);
  j.Key("seed").Int(static_cast<int64_t>(args.seed));
  j.Key("cpus").Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  j.Key("queries").Int(static_cast<int64_t>(queries.size()));
  j.Key("distinct_queries").Int(static_cast<int64_t>(distinct.size()));
  j.Key("setup_s").Open('[');
  for (double s : setup_s) j.Num(s);
  j.Close(']');

  // Gate before timing (doubles as the cache warm-up).
  EmitGate(&j, "gate", CheckQueries(*db, distinct));

  // A traced run splits its time between the untraced reference window
  // and the traced one.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  size_t trace_every = 0;
  WriterInput* window_writer = w.ingest ? &writer_input : nullptr;
  LoadResult load =
      RunLoad(db.get(), queries, w.clients, window_writer, window_s,
              /*traced=*/false);
  if (args.trace) {
    // The untraced window above is the reference; the per-layer numbers
    // come from a second window on a fresh traced set-up.
    EmitSearch(&j, "untraced", load);
    db.reset();
    double s = 0.0;
    trace_every = 1;
    db = Setup(w, db_dir, trace_every, &s);
    writer_input = MakeWriterInput(args.seed);
    EmitGate(&j, "traced_gate", CheckQueries(*db, distinct));
    load = RunLoad(db.get(), queries, w.clients, window_writer, window_s,
                   /*traced=*/true);
    EmitTrace(&j, load);
    if (!args.spans.empty()) WriteSpans(args.spans, load);
    const CursorProbe cp = ProbeCursors(*db, distinct);
    j.Key("cursor_probe").Open('{');
    j.Key("cursors").Int(cp.cursors);
    j.Key("open_us").Num(cp.open_us);
    j.Key("postings").Int(cp.postings);
    j.Key("scan_ns").Num(cp.scan_ns);
    j.Key("scan_blocks").Int(cp.scan_blocks);
    j.Key("advance_calls").Int(cp.advance_calls);
    j.Key("advance_ns").Num(cp.advance_ns);
    j.Key("advance_blocks").Int(cp.advance_blocks);
    j.Key("shallow_calls").Int(cp.shallow_calls);
    j.Key("shallow_ns").Num(cp.shallow_ns);
    j.Key("shallow_blocks").Int(cp.shallow_blocks);
    j.Close('}');
    const PlanProbe pp = ProbePlanner(*db, distinct);
    j.Key("plan_probe").Open('{');
    j.Key("queries").Int(pp.queries);
    j.Key("plan_ms").Num(pp.plan_ms);
    j.Key("failed").Int(pp.failed);
    j.Close('}');
  }
  EmitSearch(&j, "search", load);

  // The write path: the timed window's writer on ingest_mixed, a
  // writer-only probe after the window on the read-only workloads.
  if (w.ingest) {
    EmitWriter(&j, load.writer, load.registry_before, load.registry_after);
  } else {
    WriterStats probe;
    const std::string before =
        obs::MetricsRegistry::Global().Render(obs::MetricsFormat::kJson);
    RunWriter(db.get(), &writer_input, Clock::now(), Clock::time_point::max(),
              kProbeGroups, /*open_loop=*/false, &probe);
    const std::string after =
        obs::MetricsRegistry::Global().Render(obs::MetricsFormat::kJson);
    EmitWriter(&j, probe, before, after);
    load.writer = std::move(probe);
  }

  j.Key("peak_rss_kb").Int(PeakRssKb());
  const int64_t expected_live = static_cast<int64_t>(kNumDocs) +
                                load.writer.docs_acked -
                                load.writer.deletes_acked;
  const DurabilityCheck d =
      Reopen(&db, w, db_dir, trace_every, expected_live, sample);
  j.Key("durability").Open('{');
  j.Key("maintenance_ok").Bool(d.maintenance_ok);
  j.Key("expected_live").Int(d.expected_live);
  j.Key("live_after_reopen").Int(d.live_after_reopen);
  EmitGate(&j, "sample", d.sample);
  j.Key("reopen_s").Num(d.reopen_s);
  j.Close('}');
  j.Key("space").Open('{');
  j.Key("dir_bytes").Num(d.space_dir_bytes);
  j.Key("live_user_bytes").Num(d.space_user_bytes);
  j.Close('}');

  db.reset();
  std::filesystem::remove_all(db_dir);
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace moa

int main(int argc, char** argv) { return moa::Main(argc, argv); }
