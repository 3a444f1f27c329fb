#include "oracles/subset_construction.h"

#include <utility>
#include <vector>

#include "stap/approx/upper.h"
#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

using ContentRule = StatusOr<Dfa> (*)(const Edtd& edtd,
                                      const std::vector<int>& types,
                                      Budget* budget);

StatusOr<Dfa> UnionRule(const Edtd& edtd, const std::vector<int>& types,
                        Budget* budget) {
  return MinimizeNfa(ContentImageUnion(edtd, types), budget);
}

StatusOr<Dfa> IntersectionRule(const Edtd& edtd, const std::vector<int>& types,
                               Budget* budget) {
  Dfa meet;
  for (size_t i = 0; i < types.size(); ++i) {
    StatusOr<Dfa> image = Determinize(
        HomomorphicImage(edtd.content[types[i]], edtd.mu, edtd.num_symbols()),
        budget);
    if (!image.ok()) return image.status();
    if (i == 0) {
      meet = *std::move(image);
      continue;
    }
    StatusOr<Dfa> product = DfaProduct(meet, *image, BoolOp::kAnd, budget);
    if (!product.ok()) return product.status();
    meet = *std::move(product);
  }
  return Minimize(meet.Trimmed(), budget);
}

StatusOr<DfaXsd> PerSubset(const Edtd& input, ContentRule rule,
                           Budget* budget) {
  Edtd edtd = ReduceEdtd(input);
  TypeAutomaton type_automaton = BuildTypeAutomaton(edtd);
  std::vector<StateSet> subsets;
  StatusOr<Dfa> determinized_or =
      Determinize(type_automaton.nfa, budget, &subsets);
  if (!determinized_or.ok()) return determinized_or.status();
  const Dfa& determinized = *determinized_or;

  // {q_init} becomes state 0, the non-empty subsets 1.. in subset order;
  // the empty sink is dropped.
  const int n = determinized.num_states();
  std::vector<int> remap(n, kNoState);
  remap[determinized.initial()] = 0;
  int next_id = 1;
  for (int s = 0; s < n; ++s) {
    if (s != determinized.initial() && !subsets[s].empty()) {
      remap[s] = next_id++;
    }
  }

  DfaXsd xsd;
  xsd.sigma = edtd.sigma;
  for (int tau : edtd.start_types) {
    StateSetInsert(xsd.start_symbols, edtd.mu[tau]);
  }
  xsd.automaton = Dfa(next_id, edtd.num_symbols());
  xsd.automaton.SetInitial(0);
  xsd.state_label.assign(next_id, kNoSymbol);
  xsd.content.assign(next_id, Dfa::EmptyLanguage(edtd.num_symbols()));
  for (int s = 0; s < n; ++s) {
    const int q = remap[s];
    if (q == kNoState) continue;
    for (int a = 0; a < edtd.num_symbols(); ++a) {
      const int t = determinized.Next(s, a);
      if (t != kNoState && remap[t] != kNoState) {
        xsd.automaton.SetTransition(q, a, remap[t]);
      }
    }
    if (q == 0) continue;
    std::vector<int> types;
    for (int state : subsets[s]) {
      types.push_back(TypeAutomaton::TypeOfState(state));
    }
    xsd.state_label[q] = edtd.mu[types[0]];
    StatusOr<Dfa> content = rule(edtd, types, budget);
    if (!content.ok()) return content.status();
    xsd.content[q] = *std::move(content);
  }
  xsd.CheckWellFormed();
  return xsd;
}

}  // namespace

StatusOr<DfaXsd> PerSubsetUpperApproximation(const Edtd& edtd,
                                             Budget* budget) {
  return PerSubset(edtd, UnionRule, budget);
}

StatusOr<DfaXsd> PerSubsetIntersectionLower(const Edtd& edtd,
                                            Budget* budget) {
  return PerSubset(edtd, IntersectionRule, budget);
}

}  // namespace stap
