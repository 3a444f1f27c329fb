#include "stap/automata/ops.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

StatusOr<Dfa> DfaProduct(const Dfa& a_in, const Dfa& b_in, BoolOp op,
                         Budget* budget) {
  static Counter* const calls = GetCounter("ops.product_calls");
  static Counter* const states_created =
      GetCounter("ops.product_states_created");
  calls->Increment();
  ScopedSpan span("dfa_product");

  STAP_CHECK(a_in.num_symbols() == b_in.num_symbols());
  const Dfa a = a_in.Completed();
  const Dfa b = b_in.Completed();
  const int num_symbols = a.num_symbols();

  auto combine = [op](bool fa, bool fb) {
    switch (op) {
      case BoolOp::kAnd:
        return fa && fb;
      case BoolOp::kOr:
        return fa || fb;
      case BoolOp::kDiff:
        return fa && !fb;
    }
    return false;
  };

  std::unordered_map<uint64_t, int, U64Hash> ids;
  std::vector<std::pair<int, int>> worklist;  // id -> (qa, qb)
  Dfa product(0, num_symbols);
  // Budget exhaustion inside intern() latches here and unwinds the
  // exploration loop at the next iteration boundary.
  Status charge_status;
  auto intern = [&](int qa, int qb) -> int {
    auto [it, inserted] = ids.emplace(PackPair(qa, qb), product.num_states());
    if (inserted) {
      product.AddState();
      product.SetFinal(it->second, combine(a.IsFinal(qa), b.IsFinal(qb)));
      worklist.emplace_back(qa, qb);
      states_created->Increment();
      if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
    }
    return it->second;
  };

  product.SetInitial(intern(a.initial(), b.initial()));
  for (size_t id = 0; id < worklist.size() && charge_status.ok(); ++id) {
    auto [qa, qb] = worklist[id];
    for (int sym = 0; sym < num_symbols; ++sym) {
      product.SetTransition(static_cast<int>(id), sym,
                            intern(a.Next(qa, sym), b.Next(qb, sym)));
    }
  }
  STAP_RETURN_IF_ERROR(charge_status);
  span.AddArg("states_created", product.num_states());
  return product.Trimmed();
}

// A null budget never exhausts, so the products below are always OK.
Dfa DfaIntersection(const Dfa& a, const Dfa& b) {
  return *DfaProduct(a, b, BoolOp::kAnd);
}

Dfa DfaUnion(const Dfa& a, const Dfa& b) {
  return *DfaProduct(a, b, BoolOp::kOr);
}

Dfa DfaDifference(const Dfa& a, const Dfa& b) {
  return *DfaProduct(a, b, BoolOp::kDiff);
}

Dfa DfaComplement(const Dfa& dfa) {
  Dfa complete = dfa.Completed();
  Dfa result = complete;
  for (int q = 0; q < complete.num_states(); ++q) {
    result.SetFinal(q, !complete.IsFinal(q));
  }
  return result;
}

Nfa NfaUnion(const Nfa& a, const Nfa& b) {
  STAP_CHECK(a.num_symbols() == b.num_symbols());
  Nfa result(a.num_states() + b.num_states(), a.num_symbols());
  // Source rows are already sorted and duplicate-free, so each row is
  // copied (shifted for b) in one bulk assignment instead of per-edge
  // sorted inserts.
  for (int q = 0; q < a.num_states(); ++q) {
    if (a.IsInitial(q)) result.AddInitial(q);
    if (a.IsFinal(q)) result.SetFinal(q);
    for (int sym = 0; sym < a.num_symbols(); ++sym) {
      result.SetTransitionRow(q, sym, a.Next(q, sym));
    }
  }
  const int offset = a.num_states();
  StateSet shifted;
  for (int q = 0; q < b.num_states(); ++q) {
    if (b.IsInitial(q)) result.AddInitial(offset + q);
    if (b.IsFinal(q)) result.SetFinal(offset + q);
    for (int sym = 0; sym < b.num_symbols(); ++sym) {
      const StateSet& row = b.Next(q, sym);
      if (row.empty()) continue;
      shifted.clear();
      shifted.reserve(row.size());
      for (int r : row) shifted.push_back(offset + r);
      result.SetTransitionRow(offset + q, sym, shifted);
    }
  }
  return result;
}

Nfa HomomorphicImage(const Dfa& dfa, const std::vector<int>& symbol_map,
                     int image_size) {
  STAP_CHECK(static_cast<int>(symbol_map.size()) == dfa.num_symbols());
  Nfa nfa(std::max(dfa.num_states(), 1), image_size);
  if (dfa.num_states() == 0) return nfa;
  nfa.AddInitial(dfa.initial());
  // Non-injective maps merge several source symbols into one image row;
  // gather each state's rows first, then sort-unique and emit each row
  // once (same idiom as Nfa::NextInto).
  std::vector<StateSet> rows(image_size);
  std::vector<int> touched;
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) nfa.SetFinal(q);
    touched.clear();
    for (int sym = 0; sym < dfa.num_symbols(); ++sym) {
      int r = dfa.Next(q, sym);
      if (r == kNoState) continue;
      int image = symbol_map[sym];
      STAP_CHECK(image >= 0 && image < image_size);
      if (rows[image].empty()) touched.push_back(image);
      rows[image].push_back(r);
    }
    for (int image : touched) {
      StateSet& row = rows[image];
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      nfa.SetTransitionRow(q, image, std::move(row));
      row.clear();
    }
  }
  return nfa;
}

Dfa InverseHomomorphism(const Dfa& dfa, const std::vector<int>& symbol_map,
                        int domain_size) {
  STAP_CHECK(static_cast<int>(symbol_map.size()) == domain_size);
  Dfa result(std::max(dfa.num_states(), 1), domain_size);
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int sym = 0; sym < domain_size; ++sym) {
      int image = symbol_map[sym];
      if (image == kNoSymbol) continue;
      STAP_CHECK(image >= 0 && image < dfa.num_symbols());
      result.SetTransition(q, sym, dfa.Next(q, image));
    }
  }
  return result;
}

}  // namespace stap
