#include "stap/regex/dre_approx.h"

#include <vector>

#include "stap/automata/inclusion.h"
#include "stap/regex/glushkov.h"

namespace stap {

namespace {

// From each state, can some (possibly empty) path reach a transition on
// `symbol`? Computed for all states at once by backward propagation.
std::vector<bool> CanStillSee(const Dfa& dfa, int symbol) {
  std::vector<bool> result(dfa.num_states(), false);
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.Next(q, symbol) != kNoState) result[q] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int q = 0; q < dfa.num_states(); ++q) {
      if (result[q]) continue;
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        int r = dfa.Next(q, a);
        if (r != kNoState && result[r]) {
          result[q] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return result;
}

// L(dfa) ∩ (Σ \ group)* non-empty?
bool OmittableGroup(const Dfa& dfa, const std::vector<bool>& in_group) {
  // BFS avoiding group transitions.
  std::vector<bool> seen(dfa.num_states(), false);
  std::vector<int> stack = {dfa.initial()};
  seen[dfa.initial()] = true;
  while (!stack.empty()) {
    int q = stack.back();
    stack.pop_back();
    if (dfa.IsFinal(q)) return true;
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (in_group[a]) continue;
      int r = dfa.Next(q, a);
      if (r != kNoState && !seen[r]) {
        seen[r] = true;
        stack.push_back(r);
      }
    }
  }
  return false;
}

}  // namespace

RegexPtr ApproximateDre(const Dfa& input) {
  Dfa dfa = input.Trimmed();
  if (dfa.IsEmpty()) return Regex::EmptySet();
  const int num_symbols = dfa.num_symbols();

  // Occurring symbols (the trimmed automaton only keeps useful arcs).
  std::vector<bool> occurs(num_symbols, false);
  for (int q = 0; q < dfa.num_states(); ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      if (dfa.Next(q, a) != kNoState) occurs[a] = true;
    }
  }

  // before[a][b]: some accepted word has an a strictly before a b.
  std::vector<std::vector<bool>> before(
      num_symbols, std::vector<bool>(num_symbols, false));
  for (int b = 0; b < num_symbols; ++b) {
    if (!occurs[b]) continue;
    std::vector<bool> sees_b = CanStillSee(dfa, b);
    for (int q = 0; q < dfa.num_states(); ++q) {
      for (int a = 0; a < num_symbols; ++a) {
        int r = dfa.Next(q, a);
        if (r != kNoState && sees_b[r]) before[a][b] = true;
      }
    }
  }

  // Groups: strongly connected components of the precedence graph
  // (`before` is not transitive — witnesses for a≺b and b≺c can be
  // different words — so close it first), in topological order of the
  // condensation. Any consecutive pair x,y in an accepted word has
  // before[x][y], hence group(x) <= group(y): scanning a word never goes
  // back to an earlier group, which is what makes the chain sound.
  std::vector<std::vector<bool>> reach = before;
  for (int k = 0; k < num_symbols; ++k) {
    for (int a = 0; a < num_symbols; ++a) {
      if (!reach[a][k]) continue;
      for (int b = 0; b < num_symbols; ++b) {
        if (reach[k][b]) reach[a][b] = true;
      }
    }
  }
  std::vector<std::vector<int>> groups;
  std::vector<bool> assigned(num_symbols, false);
  int remaining = 0;
  for (int a = 0; a < num_symbols; ++a) remaining += occurs[a] ? 1 : 0;
  while (remaining > 0) {
    // A minimal unassigned SCC: no unassigned symbol outside it strictly
    // precedes it. The condensation is a DAG, so one always exists.
    int pick = -1;
    for (int a = 0; a < num_symbols && pick < 0; ++a) {
      if (!occurs[a] || assigned[a]) continue;
      bool minimal = true;
      for (int b = 0; b < num_symbols && minimal; ++b) {
        if (b == a || !occurs[b] || assigned[b]) continue;
        if (reach[b][a] && !reach[a][b]) minimal = false;
      }
      if (minimal) pick = a;
    }
    std::vector<int> group = {pick};
    assigned[pick] = true;
    for (int b = 0; b < num_symbols; ++b) {
      if (b == pick || !occurs[b] || assigned[b]) continue;
      if (reach[pick][b] && reach[b][pick]) {
        group.push_back(b);
        assigned[b] = true;
      }
    }
    remaining -= static_cast<int>(group.size());
    groups.push_back(std::move(group));
  }

  // One factor per group with the tightest sound quantifier.
  std::vector<RegexPtr> factors;
  for (const std::vector<int>& group : groups) {
    std::vector<bool> in_group(num_symbols, false);
    for (int a : group) in_group[a] = true;
    bool repeatable = group.size() > 1;
    for (int a : group) {
      if (before[a][a]) repeatable = true;
    }
    bool omittable = OmittableGroup(dfa, in_group);

    std::vector<RegexPtr> alternatives;
    for (int a : group) alternatives.push_back(Regex::Symbol(a));
    RegexPtr factor = Regex::Union(std::move(alternatives));
    if (repeatable) {
      factor = omittable ? Regex::Star(std::move(factor))
                         : Regex::Plus(std::move(factor));
    } else if (omittable) {
      factor = Regex::Optional(std::move(factor));
    }
    factors.push_back(std::move(factor));
  }
  return Regex::Concat(std::move(factors));
}

bool ApproximateDreIsExact(const Dfa& dfa) {
  RegexPtr approx = ApproximateDre(dfa);
  return DfaEquivalent(*RegexToDfa(*approx, dfa.num_symbols()), dfa);
}

}  // namespace stap
