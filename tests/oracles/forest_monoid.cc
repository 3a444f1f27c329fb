#include "oracles/forest_monoid.h"

#include <map>
#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/check.h"

namespace stap {

FiniteMonoid::FiniteMonoid(int size, int identity, std::vector<int> table)
    : size_(size), identity_(identity), table_(std::move(table)) {
  STAP_CHECK(size >= 1);
  STAP_CHECK(identity >= 0 && identity < size);
  STAP_CHECK(static_cast<int>(table_.size()) == size * size);
}

bool FiniteMonoid::CheckAxioms() const {
  for (int a = 0; a < size_; ++a) {
    if (Compose(a, identity_) != a || Compose(identity_, a) != a) {
      return false;
    }
    for (int b = 0; b < size_; ++b) {
      for (int c = 0; c < size_; ++c) {
        if (Compose(Compose(a, b), c) != Compose(a, Compose(b, c))) {
          return false;
        }
      }
    }
  }
  return true;
}

MonoidForestAutomaton::MonoidForestAutomaton(FiniteMonoid monoid,
                                             int num_symbols,
                                             std::vector<int> delta,
                                             std::vector<bool> final)
    : monoid_(std::move(monoid)),
      num_symbols_(num_symbols),
      delta_(std::move(delta)),
      final_(std::move(final)) {
  STAP_CHECK(static_cast<int>(delta_.size()) ==
             num_symbols_ * monoid_.size());
  STAP_CHECK(static_cast<int>(final_.size()) == monoid_.size());
}

int MonoidForestAutomaton::EvalTree(const Tree& tree) const {
  Forest children(tree.children.begin(), tree.children.end());
  return Apply(tree.label, EvalForest(children));
}

int MonoidForestAutomaton::EvalForest(const Forest& forest) const {
  int element = monoid_.identity();
  for (const Tree& tree : forest) {
    element = monoid_.Compose(element, EvalTree(tree));
  }
  return element;
}

bool MonoidForestAutomaton::Accepts(const Forest& forest) const {
  return final_[EvalForest(forest)];
}

bool MonoidForestAutomaton::AcceptsTree(const Tree& tree) const {
  return Accepts(Forest{tree});
}

namespace {

// Builds the root content DFA: accepts exactly the length-1 words over
// the start symbols (so MFA forest acceptance = single valid document).
Dfa RootContent(const DfaXsd& xsd) {
  Dfa dfa(2, xsd.sigma.size());
  dfa.SetFinal(1);
  for (int a : xsd.start_symbols) dfa.SetTransition(0, a, 1);
  return dfa;
}

// Interns the reachable transformation monoid of an XSD. Elements are
// flattened partial maps: slot (q, s) holds the content-DFA state of q
// reached from s after reading the forest, or -1 (⊥) when the forest is
// not a valid child sequence fragment in context q.
class MonoidBuilder {
 public:
  explicit MonoidBuilder(const DfaXsd& xsd)
      : xsd_(xsd), root_content_(RootContent(xsd)) {
    // Slot layout: state q's content DFA occupies [offset_[q],
    // offset_[q] + num_content_states(q)). State 0 uses root_content_.
    offset_.resize(xsd.automaton.num_states());
    int total = 0;
    for (int q = 0; q < xsd.automaton.num_states(); ++q) {
      offset_[q] = total;
      total += Content(q).num_states();
    }
    slots_ = total;
  }

  const Dfa& Content(int q) const {
    return q == 0 ? root_content_ : xsd_.content[q];
  }

  std::vector<int> Identity() const {
    std::vector<int> element(slots_);
    for (int q = 0; q < xsd_.automaton.num_states(); ++q) {
      for (int s = 0; s < Content(q).num_states(); ++s) {
        element[offset_[q] + s] = s;
      }
    }
    return element;
  }

  std::vector<int> Compose(const std::vector<int>& a,
                           const std::vector<int>& b) const {
    std::vector<int> result(slots_);
    for (int q = 0; q < xsd_.automaton.num_states(); ++q) {
      for (int s = 0; s < Content(q).num_states(); ++s) {
        int mid = a[offset_[q] + s];
        result[offset_[q] + s] = mid < 0 ? -1 : b[offset_[q] + mid];
      }
    }
    return result;
  }

  // The element of the single-tree forest a(f), given f's element.
  std::vector<int> Apply(int symbol, const std::vector<int>& child) const {
    std::vector<int> result(slots_);
    for (int q = 0; q < xsd_.automaton.num_states(); ++q) {
      int child_state = xsd_.automaton.Next(q, symbol);
      bool valid = false;
      if (child_state != kNoState) {
        const Dfa& content = Content(child_state);
        if (content.num_states() > 0) {
          int landed = child[offset_[child_state] + content.initial()];
          valid = landed >= 0 && content.IsFinal(landed);
        }
      }
      for (int s = 0; s < Content(q).num_states(); ++s) {
        if (!valid) {
          result[offset_[q] + s] = -1;
          continue;
        }
        int next = Content(q).Next(s, symbol);
        result[offset_[q] + s] = next == kNoState ? -1 : next;
      }
    }
    return result;
  }

  bool IsFinal(const std::vector<int>& element) const {
    int landed = element[offset_[0] + root_content_.initial()];
    return landed >= 0 && root_content_.IsFinal(landed);
  }

 private:
  const DfaXsd& xsd_;
  Dfa root_content_;
  std::vector<int> offset_;
  int slots_ = 0;
};

}  // namespace

MonoidForestAutomaton MfaFromXsd(const DfaXsd& xsd) {
  xsd.CheckWellFormed();
  MonoidBuilder builder(xsd);
  const int num_symbols = xsd.sigma.size();

  Interner<std::vector<int>, IntVectorHash> elements;
  elements.Intern(builder.Identity());

  // Fixpoint: close the reachable set under δ(a, ·) and composition.
  std::map<std::pair<int, int>, int> delta_map;     // (symbol, e) -> e'
  std::map<std::pair<int, int>, int> compose_map;   // (e1, e2) -> e'
  bool changed = true;
  while (changed) {
    changed = false;
    const int known = elements.size();
    for (int e = 0; e < known; ++e) {
      for (int a = 0; a < num_symbols; ++a) {
        auto key = std::make_pair(a, e);
        if (delta_map.count(key) > 0) continue;
        delta_map[key] = elements.Intern(builder.Apply(a, elements[e])).first;
        changed = true;
      }
    }
    for (int e1 = 0; e1 < known; ++e1) {
      for (int e2 = 0; e2 < known; ++e2) {
        auto key = std::make_pair(e1, e2);
        if (compose_map.count(key) > 0) continue;
        compose_map[key] =
            elements.Intern(builder.Compose(elements[e1], elements[e2])).first;
        changed = true;
      }
    }
  }

  const int size = elements.size();
  std::vector<int> table(static_cast<size_t>(size) * size);
  for (int e1 = 0; e1 < size; ++e1) {
    for (int e2 = 0; e2 < size; ++e2) {
      table[e1 * size + e2] = compose_map.at({e1, e2});
    }
  }
  std::vector<int> delta(static_cast<size_t>(num_symbols) * size);
  for (int a = 0; a < num_symbols; ++a) {
    for (int e = 0; e < size; ++e) {
      delta[a * size + e] = delta_map.at({a, e});
    }
  }
  std::vector<bool> final(size);
  for (int e = 0; e < size; ++e) final[e] = builder.IsFinal(elements[e]);

  return MonoidForestAutomaton(FiniteMonoid(size, 0, std::move(table)),
                               num_symbols, std::move(delta),
                               std::move(final));
}

}  // namespace stap
