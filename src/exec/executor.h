// StrategyExecutor: the uniform interface every physical top-N strategy is
// executed through, plus the unified ExecOptions bundle.
//
// The legacy free functions in src/topn/ keep their heterogeneous
// signatures (they remain the implementation and the source-compatible
// API); executors adapt them to one shape so the engine, Explain and the
// benches all dispatch identically through the StrategyRegistry.
#ifndef MOA_EXEC_EXECUTOR_H_
#define MOA_EXEC_EXECUTOR_H_

#include <cstddef>
#include <type_traits>
#include <variant>

#include "exec/exec_context.h"
#include "ir/query_gen.h"
#include "topn/fagin.h"
#include "topn/fragment_topn.h"
#include "topn/maxscore.h"
#include "topn/probabilistic.h"
#include "topn/stop_after.h"
#include "topn/topn_result.h"

namespace moa {

/// The one-of strategy-specific option payload of ExecOptions. Alternative
/// 0 (monostate) means "common knobs only".
using StrategyOptionsVariant =
    std::variant<std::monostate, FaginOptions, StopAfterOptions,
                 ProbabilisticOptions, QualitySwitchOptions, MaxScoreOptions>;

namespace exec_detail {
template <typename T, typename Variant>
struct VariantIndexOf;
template <typename T, typename... Ts>
struct VariantIndexOf<T, std::variant<Ts...>> {
  static constexpr size_t value = [] {
    constexpr bool matches[] = {std::is_same_v<T, Ts>...};
    size_t i = 0;
    for (bool m : matches) {
      if (m) break;
      ++i;
    }
    return i;
  }();
  static_assert(value < sizeof...(Ts), "T is not an ExecOptions alternative");
};
}  // namespace exec_detail

/// Variant index of strategy-option type T — the registry's currency for
/// "which typed options does this strategy accept" (see
/// StrategyRegistry::Register).
template <typename T>
constexpr size_t ExecOptionsIndexOf() {
  return exec_detail::VariantIndexOf<T, StrategyOptionsVariant>::value;
}

/// Registration value for strategies that take no typed options: only the
/// monostate alternative (and the common knobs) are accepted for them.
inline constexpr size_t kNoStrategyOptions = 0;

/// \brief Per-execution tuning carried to an executor factory.
///
/// `strategy_options` carries at most one strategy-specific option struct.
/// The registry rejects an execution whose typed options do not belong to
/// the target strategy's family (an InvalidArgument instead of a silent
/// ignore); a factory whose family matches uses them and falls back to
/// per-strategy defaults (seeded from the common knobs below) otherwise.
///
/// The common knobs are *hints*, not typed options: every strategy accepts
/// them and strategies they do not apply to ignore them by design.
/// `switch_threshold` is consulted by the fragment strategies only — this
/// is what lets callers that only know the common knobs, e.g.
/// MmDatabase::Search, dispatch to any planner-chosen strategy without
/// per-strategy code.
struct ExecOptions {
  /// Quality-switch threshold used by fragment strategies when no explicit
  /// QualitySwitchOptions is supplied; ignored by every other strategy.
  double switch_threshold = 0.0;

  StrategyOptionsVariant strategy_options;

  /// The strategy-specific options if they are of type T, else nullptr.
  template <typename T>
  const T* GetIf() const {
    return std::get_if<T>(&strategy_options);
  }
};

/// \brief Uniform execution interface over all physical strategies.
class StrategyExecutor {
 public:
  virtual ~StrategyExecutor() = default;

  /// Runs the strategy for (query, n) against the borrowed context.
  virtual Result<TopNResult> Execute(const ExecContext& context,
                                     const Query& query, size_t n) const = 0;
};

}  // namespace moa

#endif  // MOA_EXEC_EXECUTOR_H_
