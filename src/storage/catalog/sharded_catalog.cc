#include "storage/catalog/sharded_catalog.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <sstream>

namespace moa {

// ------------------------------------------------------------ ShardedCatalog

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Build(
    const Options& options,
    Result<std::unique_ptr<IndexCatalog>> (*open_one)(
        const IndexCatalog::Options&)) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ShardedCatalog: num_shards must be >= 1");
  }
  auto catalog = std::unique_ptr<ShardedCatalog>(new ShardedCatalog(options));
  catalog->shards_.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    IndexCatalog::Options shard_options = options.shard;
    shard_options.dir = ShardDir(options, s);
    Result<std::unique_ptr<IndexCatalog>> shard = open_one(shard_options);
    if (!shard.ok()) return shard.status();
    catalog->shards_.push_back(std::move(shard).ValueOrDie());
  }
  return catalog;
}

std::string ShardedCatalog::ShardDir(const Options& options, size_t s) {
  if (options.shard.dir.empty() || options.num_shards == 1) {
    return options.shard.dir;
  }
  return options.shard.dir + "/shard_" + std::to_string(s);
}

bool ShardedCatalog::Exists(const Options& options) {
  return !options.shard.dir.empty() &&
         std::filesystem::exists(ShardDir(options, 0) + "/" +
                                 kManifestFileName);
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Create(
    const Options& options) {
  return Build(options, &IndexCatalog::Create);
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::Open(
    const Options& options) {
  return Build(options, &IndexCatalog::Open);
}

size_t ShardedCatalog::LeastLoaded(const std::vector<uint64_t>& doc_space) {
  size_t best = 0;
  for (size_t s = 1; s < doc_space.size(); ++s) {
    if (doc_space[s] < doc_space[best]) best = s;
  }
  return best;
}

std::vector<uint64_t> ShardedCatalog::DocSpaces() const {
  std::vector<uint64_t> spaces(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    spaces[s] = shards_[s]->Snapshot()->doc_space();
  }
  return spaces;
}

Result<DocId> ShardedCatalog::AddDocument(const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t s = LeastLoaded(DocSpaces());
  Result<DocId> local = shards_[s]->AddDocument(terms);
  if (!local.ok()) return local.status();
  InvalidateSnapshotCache();
  return GlobalOf(local.ValueOrDie(), s, shards_.size());
}

Result<std::vector<DocId>> ShardedCatalog::AddDocuments(
    const std::vector<DocTerms>& docs) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shards_.size() == 1) {
    // No routing to do: the batch goes through as is (no per-shard copy)
    // and under the shard's own validation, empty batches included.
    Result<DocId> first = shards_[0]->AddDocuments(docs);
    if (!first.ok()) return first.status();
    InvalidateSnapshotCache();
    std::vector<DocId> ids(docs.size());
    std::iota(ids.begin(), ids.end(), first.ValueOrDie());
    return ids;
  }
  if (docs.empty()) return std::vector<DocId>{};

  // Route greedily in input order against a simulated load vector, then
  // ingest each shard's run as one batch (one state publication per
  // touched shard). From an empty catalog this is exactly round-robin,
  // so a pristine seed gets identity global ids.
  std::vector<uint64_t> spaces = DocSpaces();
  std::vector<size_t> shard_of(docs.size());
  std::vector<std::vector<DocTerms>> batches(shards_.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    const size_t s = LeastLoaded(spaces);
    shard_of[i] = s;
    batches[s].push_back(docs[i]);
    ++spaces[s];
  }

  std::vector<DocId> first_local(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (batches[s].empty()) continue;
    Result<DocId> first = shards_[s]->AddDocuments(batches[s]);
    if (!first.ok()) return first.status();
    first_local[s] = first.ValueOrDie();
  }
  InvalidateSnapshotCache();

  std::vector<DocId> ids(docs.size());
  std::vector<DocId> next_local = first_local;  // consecutive per shard
  for (size_t i = 0; i < docs.size(); ++i) {
    const size_t s = shard_of[i];
    ids[i] = GlobalOf(next_local[s]++, s, shards_.size());
  }
  return ids;
}

Status ShardedCatalog::DeleteDocument(DocId global) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t s = ShardOf(global, shards_.size());
  Status status = shards_[s]->DeleteDocument(LocalOf(global, shards_.size()));
  if (status.ok()) InvalidateSnapshotCache();
  return status;
}

Result<DocId> ShardedCatalog::UpdateDocument(DocId global,
                                             const DocTerms& terms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shards_.size() == 1) {
    InvalidateSnapshotCache();
    return shards_[0]->UpdateDocument(global, terms);
  }
  const size_t victim = ShardOf(global, shards_.size());
  MOA_RETURN_NOT_OK(
      shards_[victim]->DeleteDocument(LocalOf(global, shards_.size())));
  InvalidateSnapshotCache();
  const size_t s = LeastLoaded(DocSpaces());
  Result<DocId> local = shards_[s]->AddDocument(terms);
  if (!local.ok()) return local.status();
  return GlobalOf(local.ValueOrDie(), s, shards_.size());
}

Status ShardedCatalog::Flush(size_t shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  Status status = shards_[shard]->Flush();
  if (status.ok()) InvalidateSnapshotCache();
  return status;
}

Status ShardedCatalog::FlushAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& shard : shards_) MOA_RETURN_NOT_OK(shard->Flush());
  InvalidateSnapshotCache();
  return Status::OK();
}

Result<size_t> ShardedCatalog::Merge(size_t shard, const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  Result<size_t> merged = shards_[shard]->Merge(policy);
  if (merged.ok()) InvalidateSnapshotCache();
  return merged;
}

Result<size_t> ShardedCatalog::MergeAll(const MergePolicy& policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (auto& shard : shards_) {
    Result<size_t> merged = shard->Merge(policy);
    if (!merged.ok()) return merged.status();
    total += merged.ValueOrDie();
  }
  InvalidateSnapshotCache();
  return total;
}

std::shared_ptr<const ShardedSnapshot> ShardedCatalog::Snapshot() const {
  if (shards_.size() == 1) {
    // The shard's state is the whole snapshot, so readers skip the
    // mutation lock — writers hold it through their WAL fsync. The cache
    // validates itself instead: it is rebuilt whenever the shard has
    // published a newer state than the cached one wraps.
    std::shared_ptr<const CatalogState> state = shards_[0]->Snapshot();
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    if (cached_ == nullptr || cached_->version() < state->version()) {
      std::vector<std::shared_ptr<const CatalogState>> states;
      states.push_back(std::move(state));
      cached_ = std::make_shared<const ShardedSnapshot>(std::move(states),
                                                        options_.shard.scoring);
    }
    return cached_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::lock_guard<std::mutex> cache_lock(cache_mutex_);
  if (cached_ == nullptr) {
    std::vector<std::shared_ptr<const CatalogState>> states;
    states.reserve(shards_.size());
    for (const auto& shard : shards_) states.push_back(shard->Snapshot());
    cached_ = std::make_shared<const ShardedSnapshot>(std::move(states),
                                                      options_.shard.scoring);
  }
  return cached_;
}

// ----------------------------------------------------------- ShardedSnapshot

struct ShardedSnapshot::ShardEntry {
  ShardEntry(const ShardedSnapshot* snapshot, size_t index,
             std::shared_ptr<const CatalogState> s, ScoringModelKind kind,
             const CatalogStats* global)
      : state(std::move(s)),
        stats_view(global, state.get()),
        model(MakeScoringModel(kind, &stats_view)),
        source(snapshot, index, state.get()),
        composition(state->Composition()) {}

  std::shared_ptr<const CatalogState> state;
  ShardStatsView stats_view;
  std::unique_ptr<ScoringModel> model;
  ShardReadView source;
  CatalogComposition composition;

  // Build-once impact orders and bounds of the shard's live postings
  // under the snapshot's global statistics (the state's own cache, keyed
  // to the shard's local statistics, cannot be reused — see the header's
  // file comment).
  TermImpactCache impacts{state.get()};
};

ShardedSnapshot::ShardedSnapshot(
    std::vector<std::shared_ptr<const CatalogState>> states,
    ScoringModelKind scoring)
    : global_(states.empty() ? 0 : states.front()->num_terms()) {
  // Aggregate the global statistics first: the per-shard models sample
  // the average document length at construction, so they must be built
  // against the completed aggregate.
  for (const auto& state : states) {
    const CatalogStats& s = state->stats();
    for (size_t t = 0; t < s.df.size(); ++t) {
      global_.df[t] += s.df[t];
      global_.cf[t] += s.cf[t];
    }
    global_.num_live_docs += s.num_live_docs;
    global_.total_live_tokens += s.total_live_tokens;
    version_ += state->version();
  }
  entries_.reserve(states.size());
  for (size_t s = 0; s < states.size(); ++s) {
    entries_.push_back(std::make_unique<ShardEntry>(
        this, s, std::move(states[s]), scoring, &global_));
  }
}

ShardedSnapshot::~ShardedSnapshot() = default;

uint64_t ShardedSnapshot::doc_space() const {
  const uint64_t n = entries_.size();
  uint64_t space = 0;
  for (size_t s = 0; s < entries_.size(); ++s) {
    const uint64_t local = entries_[s]->state->doc_space();
    if (local > 0) space = std::max(space, (local - 1) * n + s + 1);
  }
  return space;
}

const CatalogState& ShardedSnapshot::shard_state(size_t s) const {
  return *entries_[s]->state;
}

const PostingSource& ShardedSnapshot::shard_source(size_t s) const {
  return entries_[s]->source;
}

const ScoringModel& ShardedSnapshot::shard_model(size_t s) const {
  return *entries_[s]->model;
}

SparseIndexCache& ShardedSnapshot::shard_sparse_cache(size_t s) const {
  return entries_[s]->state->sparse_cache();
}

const CatalogComposition& ShardedSnapshot::shard_composition(size_t s) const {
  return entries_[s]->composition;
}

double ShardedSnapshot::ShardTermBound(size_t s, TermId t) const {
  const ShardEntry& entry = *entries_[s];
  return entry.impacts.MaxImpact(*entry.model, t);
}

std::unique_ptr<ImpactCursor> ShardedSnapshot::OpenShardImpactCursor(
    size_t s, TermId t) const {
  const ShardEntry& entry = *entries_[s];
  return entry.impacts.OpenCursor(*entry.model, t, global_.df[t]);
}

double ShardedSnapshot::ShardQueryBound(size_t s, const Query& query) const {
  double bound = 0.0;
  for (TermId t : query.terms) bound += ShardTermBound(s, t);
  return bound;
}

uint32_t ShardedSnapshot::DocLength(DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->DocLength(
      ShardedCatalog::LocalOf(global, n));
}

bool ShardedSnapshot::IsDeleted(DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->IsDeleted(
      ShardedCatalog::LocalOf(global, n));
}

const DocTerms& ShardedSnapshot::TermsOf(DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->TermsOf(
      ShardedCatalog::LocalOf(global, n));
}

std::optional<uint32_t> ShardedSnapshot::FindTf(TermId t, DocId global) const {
  const size_t n = entries_.size();
  return entries_[ShardedCatalog::ShardOf(global, n)]->state->FindTf(
      t, ShardedCatalog::LocalOf(global, n));
}

std::vector<DocId> ShardedSnapshot::LiveDocIds() const {
  const size_t n = entries_.size();
  std::vector<DocId> ids;
  for (size_t s = 0; s < entries_.size(); ++s) {
    for (DocId local : entries_[s]->state->LiveDocIds()) {
      ids.push_back(ShardedCatalog::GlobalOf(local, s, n));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ShardedSnapshot::Describe() const {
  if (entries_.size() == 1) return entries_[0]->state->Describe();
  std::ostringstream os;
  os << "sharded(" << entries_.size() << "): [";
  for (size_t s = 0; s < entries_.size(); ++s) {
    if (s > 0) os << "; ";
    os << "shard " << s << ": " << entries_[s]->state->Describe();
  }
  os << "]";
  return os.str();
}

// ------------------------------------------------------------ ShardReadView

size_t ShardReadView::num_terms() const {
  return snapshot_->stats().df.size();
}

uint32_t ShardReadView::DocFrequency(TermId t) const {
  return snapshot_->stats().df[t];
}

double ShardReadView::MaxImpact(TermId t) const {
  return snapshot_->ShardTermBound(shard_, t);
}

std::unique_ptr<PostingCursor> ShardReadView::OpenCursor(TermId t) const {
  return state_->OpenMergedCursor(t, snapshot_->ShardTermBound(shard_, t));
}

std::unique_ptr<ImpactCursor> ShardReadView::OpenImpactCursor(
    TermId t, const ScoringModel& /*model*/) const {
  return snapshot_->OpenShardImpactCursor(shard_, t);
}

}  // namespace moa
