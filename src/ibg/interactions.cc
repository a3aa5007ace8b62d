#include "ibg/interactions.h"

namespace wfit {

double DegreeOfInteraction(const IndexBenefitGraph& ibg, int bit_a,
                           int bit_b) {
  WFIT_CHECK(bit_a != bit_b, "doi of an index with itself");
  const Mask mask_a = Mask{1} << bit_a;
  const Mask mask_b = Mask{1} << bit_b;
  // Indices that never appear in any plan cannot change any cost.
  if ((ibg.relevant_used() & mask_a) == 0 ||
      (ibg.relevant_used() & mask_b) == 0) {
    return 0.0;
  }
  // Contexts are enumerated within the plan-relevant indices, truncated to
  // the IBG's enumeration budget (doi is pairwise, so the budget is spent
  // per pair) and read from its dense cost tables.
  return ibg.MaxInteraction(bit_a, bit_b);
}

std::vector<InteractionEntry> ComputeInteractions(
    const IndexBenefitGraph& ibg) {
  std::vector<InteractionEntry> out;
  const auto& cands = ibg.candidates();
  const Mask used = ibg.relevant_used();
  for (size_t i = 0; i < cands.size(); ++i) {
    if ((used & (Mask{1} << i)) == 0) continue;
    for (size_t j = i + 1; j < cands.size(); ++j) {
      if ((used & (Mask{1} << j)) == 0) continue;
      double doi = DegreeOfInteraction(ibg, static_cast<int>(i),
                                       static_cast<int>(j));
      if (doi > 0.0) {
        out.push_back(InteractionEntry{cands[i], cands[j], doi});
      }
    }
  }
  return out;
}

}  // namespace wfit
