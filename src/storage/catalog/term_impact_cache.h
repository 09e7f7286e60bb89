// TermImpactCache: build-once, per-snapshot impact orders of the live
// postings — the catalog's sorted access and its exact term bounds.
//
// A catalog snapshot has no stored impact order it can trust: weights
// depend on the live statistics, which move with every mutation. The
// cache materializes each term's order on the term's first use in a
// snapshot — one merged-cursor pass that weights every live posting — and
// serves every later query on that snapshot from memory, so opening a
// sorted-access cursor costs a pointer copy instead of a whole-list
// decode.
//
// Order: descending weight, ties by ascending doc — exactly the order
// InvertedFile::BuildImpactOrders materializes and the lazy fragment
// cursor reproduces, with bit-identical weights (the same model
// arithmetic over the same live postings).
//
// Memory: threshold-style consumers read a short prefix of each order, so
// the first use keeps only the top kPrefix postings (a bounded selection
// over the pass). A cursor that reads past a prefix triggers one more
// pass that keeps a kGrowth-times deeper prefix, chained behind the
// shallower one, until a prefix covers the whole list. Every prefix is
// the start of the same total order, so a cursor switching to a deeper
// one keeps its position and the switch is invisible to the consumer.
// A deep reader costs O(log_kGrowth(df / kPrefix)) extra passes, and the
// chain of one term stays within 8/7 of its complete order.
//
// Bounds: MaxImpact is the exact max current weight of the term — the
// first weight of its order. A term whose order is not built yet gets a
// depth-1 selection pass instead, keeping only the value: terms that are
// only pruned on, never read in impact order (max-score, shard skipping),
// do not pay for an order. Bounds live in one dense per-term array.
//
// Thread-safety: internally synchronized, lock-free on the read path.
// Each term's bound and order (and each deeper prefix) is published once
// through an atomic; concurrent first users may both build, the loser
// discards its identical copy. Published entries are immutable and live
// as long as the cache.
#ifndef MOA_STORAGE_CATALOG_TERM_IMPACT_CACHE_H_
#define MOA_STORAGE_CATALOG_TERM_IMPACT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/posting.h"
#include "storage/segment/posting_cursor.h"

namespace moa {

class CatalogState;
class ScoringModel;

/// \brief One posting of an impact order, weight precomputed.
struct ImpactPosting {
  double weight;
  DocId doc;
  uint32_t tf;
};

/// \brief Per-term impact orders of one snapshot's live postings.
class TermImpactCache {
 public:
  /// Postings kept on a term's first use.
  static constexpr size_t kPrefix = 64;
  /// Depth factor between a prefix and the next deeper one.
  static constexpr size_t kGrowth = 8;

  /// `state` supplies the live postings (its merged cursors) and must
  /// outlive the cache. Allocates nothing until the first lookup.
  explicit TermImpactCache(const CatalogState* state) : state_(state) {}
  ~TermImpactCache();

  TermImpactCache(const TermImpactCache&) = delete;
  TermImpactCache& operator=(const TermImpactCache&) = delete;

  /// Exact max weight of t's live postings under `model` (0 when the
  /// term has none). Every caller of one cache must pass models with
  /// identical arithmetic — the cache keeps one order per term.
  double MaxImpact(const ScoringModel& model, TermId t) const;

  /// Sorted access over t's cached order. `size` is what the cursor
  /// reports as size() (the serving source's DocFrequency). `model` must
  /// outlive the cursor: it weights the deeper prefixes the cursor may
  /// read into.
  std::unique_ptr<ImpactCursor> OpenCursor(const ScoringModel& model,
                                           TermId t, size_t size) const;

 private:
  class Cursor;

  /// One published prefix of a term's order: its top order.size()
  /// postings (the whole list when `complete`), plus the lazily built
  /// next deeper prefix.
  struct Entry {
    explicit Entry(bool is_complete) : complete(is_complete) {}
    ~Entry();

    std::vector<ImpactPosting> order;
    bool complete = false;
    mutable std::atomic<const Entry*> deeper{nullptr};
  };

  /// t's first prefix, building it on first use.
  const Entry& Get(const ScoringModel& model, TermId t) const;
  /// The prefix after `entry` (which must not be complete), building it
  /// on first use.
  const Entry& Deeper(const ScoringModel& model, TermId t,
                      const Entry& entry) const;
  /// One merged pass keeping t's top `depth` postings in impact order.
  std::unique_ptr<Entry> Build(const ScoringModel& model, TermId t,
                               size_t depth) const;
  /// The per-term arrays, allocated on first use. Unset bounds are NaN
  /// (weights are finite).
  std::atomic<double>* bounds() const;
  std::atomic<const Entry*>* entries() const;

  const CatalogState* state_;
  mutable std::once_flag bounds_once_;
  mutable std::unique_ptr<std::atomic<double>[]> bounds_;
  mutable std::once_flag entries_once_;
  mutable std::unique_ptr<std::atomic<const Entry*>[]> entries_;
};

}  // namespace moa

#endif  // MOA_STORAGE_CATALOG_TERM_IMPACT_CACHE_H_
