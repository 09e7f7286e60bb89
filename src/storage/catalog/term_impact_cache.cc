#include "storage/catalog/term_impact_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/timer.h"
#include "ir/scoring.h"
#include "obs/metrics.h"
#include "storage/catalog/catalog_state.h"

namespace moa {
namespace {

// Per-term-per-query events, like the sparse cache's: one sharded add on
// a hit, a wall-clock observation per build. Handles resolve once.
void RecordHit() {
  if (obs::kEnabled) {
    static obs::Counter* const hits =
        obs::MetricsRegistry::Global().GetCounter(
            "moa_impact_cache_hits_total");
    hits->Add();
  }
}

void RecordBuild(double build_millis) {
  if (obs::kEnabled) {
    static obs::Counter* const misses =
        obs::MetricsRegistry::Global().GetCounter(
            "moa_impact_cache_misses_total");
    static obs::HistogramMetric* const build_ms =
        obs::MetricsRegistry::Global().GetHistogram(
            "moa_impact_cache_build_ms");
    misses->Add();
    build_ms->Observe(build_millis);
  }
}

/// Impact order: a comes before b (weight desc, doc asc). Doc ids are
/// unique within a term, so this is a strict total order and every
/// selection over it is deterministic.
bool Before(const ImpactPosting& a, const ImpactPosting& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.doc < b.doc;
}

/// Publishes `built` into `slot` unless another builder got there first;
/// returns whichever copy won. The copies are identical (same postings,
/// same arithmetic), so the loser is simply discarded.
template <typename T>
const T* Publish(std::atomic<const T*>& slot, std::unique_ptr<T> built) {
  const T* expected = nullptr;
  if (slot.compare_exchange_strong(expected, built.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return built.release();
  }
  return expected;
}

}  // namespace

/// Walks a term's chain of prefixes, stepping into the next deeper one
/// when it reaches the end of an incomplete prefix. Every prefix starts
/// with the shallower one's postings, so the position carries over.
class TermImpactCache::Cursor final : public ImpactCursor {
 public:
  Cursor(const TermImpactCache* cache, const ScoringModel* model, TermId term,
         const Entry* entry, size_t size)
      : cache_(cache), model_(model), term_(term), entry_(entry), size_(size) {}

  DocId doc() const override {
    return pos_ < entry_->order.size() ? entry_->order[pos_].doc : kEndDoc;
  }
  uint32_t tf() const override {
    return pos_ < entry_->order.size() ? entry_->order[pos_].tf : 0;
  }
  double weight() const override {
    return pos_ < entry_->order.size() ? entry_->order[pos_].weight : 0.0;
  }
  void next() override {
    if (pos_ >= entry_->order.size()) return;
    if (++pos_ == entry_->order.size() && !entry_->complete) {
      entry_ = &cache_->Deeper(*model_, term_, *entry_);
    }
  }
  size_t size() const override { return size_; }

 private:
  const TermImpactCache* cache_;
  const ScoringModel* model_;
  TermId term_;
  const Entry* entry_;
  size_t size_;
  size_t pos_ = 0;
};

TermImpactCache::Entry::~Entry() { delete deeper.load(); }

TermImpactCache::~TermImpactCache() {
  if (entries_ == nullptr) return;
  for (size_t t = 0; t < state_->num_terms(); ++t) delete entries_[t].load();
}

std::atomic<double>* TermImpactCache::bounds() const {
  std::call_once(bounds_once_, [this] {
    const size_t n = state_->num_terms();
    bounds_.reset(new std::atomic<double>[n]);
    for (size_t t = 0; t < n; ++t) {
      bounds_[t].store(std::numeric_limits<double>::quiet_NaN(),
                       std::memory_order_relaxed);
    }
  });
  return bounds_.get();
}

std::atomic<const TermImpactCache::Entry*>* TermImpactCache::entries() const {
  std::call_once(entries_once_, [this] {
    entries_.reset(new std::atomic<const Entry*>[state_->num_terms()]());
  });
  return entries_.get();
}

std::unique_ptr<TermImpactCache::Entry> TermImpactCache::Build(
    const ScoringModel& model, TermId t, size_t depth) const {
  // Bounded selection over one merged pass: a heap whose front is the
  // weakest kept posting (a max-heap under Before), so once it is full
  // most postings of a long list cost one comparison against the front.
  WallTimer build_timer;
  const size_t live = state_->stats().df[t];
  auto entry = std::make_unique<Entry>(/*is_complete=*/live <= depth);
  std::vector<ImpactPosting>& top = entry->order;
  top.reserve(std::min(depth, live));
  for (auto cursor = state_->OpenMergedCursor(t, 0.0); !cursor->at_end();
       cursor->next()) {
    const Posting p{cursor->doc(), cursor->tf()};
    const ImpactPosting ip{model.Weight(t, p), p.doc, p.tf};
    if (top.size() < depth) {
      top.push_back(ip);
      std::push_heap(top.begin(), top.end(), Before);
    } else if (Before(ip, top.front())) {
      std::pop_heap(top.begin(), top.end(), Before);
      top.back() = ip;
      std::push_heap(top.begin(), top.end(), Before);
    }
  }
  std::sort_heap(top.begin(), top.end(), Before);
  RecordBuild(build_timer.ElapsedMillis());
  return entry;
}

const TermImpactCache::Entry& TermImpactCache::Get(const ScoringModel& model,
                                                   TermId t) const {
  // A term without live postings needs no slot: every such term shares
  // one empty, complete order.
  static const Entry kEmpty(/*is_complete=*/true);
  if (state_->stats().df[t] == 0) return kEmpty;
  std::atomic<const Entry*>& slot = entries()[t];
  if (const Entry* hit = slot.load(std::memory_order_acquire)) {
    RecordHit();
    return *hit;
  }
  const Entry& entry = *Publish(slot, Build(model, t, kPrefix));
  bounds()[t].store(entry.order.front().weight, std::memory_order_relaxed);
  return entry;
}

const TermImpactCache::Entry& TermImpactCache::Deeper(
    const ScoringModel& model, TermId t, const Entry& entry) const {
  if (const Entry* hit = entry.deeper.load(std::memory_order_acquire)) {
    RecordHit();
    return *hit;
  }
  return *Publish(entry.deeper,
                  Build(model, t, entry.order.size() * kGrowth));
}

double TermImpactCache::MaxImpact(const ScoringModel& model, TermId t) const {
  if (state_->stats().df[t] == 0) return 0.0;
  std::atomic<double>& slot = bounds()[t];
  double bound = slot.load(std::memory_order_relaxed);
  if (!std::isnan(bound)) {
    RecordHit();
    return bound;
  }
  // The bound alone is the depth-1 prefix; nothing else is kept.
  bound = Build(model, t, 1)->order.front().weight;
  slot.store(bound, std::memory_order_relaxed);
  return bound;
}

std::unique_ptr<ImpactCursor> TermImpactCache::OpenCursor(
    const ScoringModel& model, TermId t, size_t size) const {
  return std::make_unique<Cursor>(this, &model, t, &Get(model, t), size);
}

}  // namespace moa
