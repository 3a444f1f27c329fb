#include "oracles/count_binary.h"

#include <unordered_map>
#include <utility>

#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/treeauto/bta.h"
#include "stap/treeauto/encoding.h"

namespace stap {

namespace {

Status CheckBounds(const CountBounds& bounds) {
  if (bounds.max_depth < 1 || bounds.max_width < 0) {
    return InvalidArgumentError(
        "count bounds require max_depth >= 1 and max_width >= 0");
  }
  return Status();
}

using StateCounts = std::unordered_map<int, CountValue>;

void AddCount(StateCounts* counts, int state, const CountValue& delta) {
  CountValue& slot = (*counts)[state];
  slot = CountValue::Add(slot, delta);
}

}  // namespace

StatusOr<std::vector<CountValue>> CountEdtdByDepthViaBinary(
    const Edtd& edtd, const CountBounds& bounds, Budget* budget) {
  STAP_RETURN_IF_ERROR(CheckBounds(bounds));
  static Counter* const calls = GetCounter("count.binary_calls");
  calls->Increment();
  ScopedSpan span("count.binary");

  const int num_symbols = edtd.num_symbols();
  const int hash = HashSymbol(num_symbols);
  Bta bta = BtaFromEdtd(edtd);
  StatusOr<DetBta> det_or = DeterminizeBta(bta, budget);
  if (!det_or.ok()) return det_or.status();
  const DetBta det = *std::move(det_or);
  span.AddArg("det_states", det.num_states());

  // enc(a(t1..tn)) = a(spine, #) with the spine a right-leaning chain of
  // #-nodes over the encoded children. A DetBta run maps every encoded
  // tree to one state, so counting per state is exact.
  const int nil_state = det.LeafState(hash);

  // Σ-rooted encodings of trees with depth <= d, keyed by DetBta state.
  StateCounts sigma_prev;
  std::vector<CountValue> totals;
  totals.reserve(bounds.max_depth);

  for (int d = 1; d <= bounds.max_depth; ++d) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    // Spines over members from sigma_prev, by forest length 1..max_width.
    StateCounts spines;
    StateCounts chain;
    AddCount(&chain, nil_state, CountValue::One());
    for (int len = 1; len <= bounds.max_width; ++len) {
      StateCounts longer;
      for (const auto& [member_state, member_count] : sigma_prev) {
        for (const auto& [rest_state, rest_count] : chain) {
          const int state = det.InternalState(hash, member_state, rest_state);
          AddCount(&longer, state,
                   CountValue::Mul(member_count, rest_count));
        }
      }
      if (longer.empty()) break;
      STAP_RETURN_IF_ERROR(
          Budget::ChargeSets(budget, static_cast<int64_t>(longer.size())));
      for (const auto& [state, count] : longer) AddCount(&spines, state, count);
      chain = std::move(longer);
    }

    StateCounts sigma_cur;
    for (int a = 0; a < num_symbols; ++a) {
      // Leaves: enc(a) is the bare leaf a.
      AddCount(&sigma_cur, det.LeafState(a), CountValue::One());
      for (const auto& [spine_state, spine_count] : spines) {
        const int state = det.InternalState(a, spine_state, nil_state);
        AddCount(&sigma_cur, state, spine_count);
      }
    }
    STAP_RETURN_IF_ERROR(
        Budget::ChargeSets(budget, static_cast<int64_t>(sigma_cur.size())));

    CountValue total;
    for (const auto& [state, count] : sigma_cur) {
      if (det.IsFinal(state)) total = CountValue::Add(total, count);
    }
    totals.push_back(total);
    sigma_prev = std::move(sigma_cur);
  }
  return totals;
}

}  // namespace stap
