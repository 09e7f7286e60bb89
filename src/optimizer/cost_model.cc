#include "optimizer/cost_model.h"

#include <algorithm>
#include <sstream>


namespace moa {

std::string PlanCostEstimate::ToString() const {
  std::ostringstream os;
  os << StrategyName(strategy) << ": scalar=" << scalar << " "
     << predicted.ToString();
  return os.str();
}

StrategyCostInputs BuildCostInputs(const CardinalityEstimator& est,
                                   const Query& query, size_t n,
                                   const StrategyCostInputs& storage) {
  StrategyCostInputs in = storage;
  in.volume = static_cast<double>(est.QueryVolume(query));
  in.candidates = std::max(1.0, est.ExpectedCandidates(query));
  in.n = std::max<double>(1.0, static_cast<double>(n));
  in.active_terms = static_cast<double>(std::max(1, est.ActiveTerms(query)));
  in.has_fragmentation = est.fragmentation() != nullptr;
  if (in.has_fragmentation) {
    in.small_volume =
        static_cast<double>(est.QueryVolume(query, FragmentId::kSmall));
    in.large_volume =
        static_cast<double>(est.QueryVolume(query, FragmentId::kLarge));
    in.large_active_terms =
        static_cast<double>(est.ActiveTerms(query, FragmentId::kLarge));
  }
  return in;
}

}  // namespace moa
