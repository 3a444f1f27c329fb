#include "stap/schema/nfa_schema.h"

#include <unordered_set>
#include <utility>

#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/base/check.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/text_format.h"

namespace stap {

namespace {

// Relabels an NFA over the type alphabet into one over Σ via μ.
Nfa TypeImage(const Nfa& content, const std::vector<int>& mu,
              int num_symbols) {
  Nfa image(std::max(content.num_states(), 1), num_symbols);
  for (int q : content.initial()) image.AddInitial(q);
  for (int q = 0; q < content.num_states(); ++q) {
    if (content.IsFinal(q)) image.SetFinal(q);
    for (int t = 0; t < content.num_symbols(); ++t) {
      for (int r : content.Next(q, t)) {
        image.AddTransition(q, mu[t], r);
      }
    }
  }
  return image;
}

// The type automaton of an EDTD(NFA), with the usual state convention
// (state 0 = q_init, state 1 + τ = type τ). Occurring types come from the
// trimmed content NFAs.
Nfa TypeAutomatonNfa(const EdtdNfa& edtd) {
  Nfa automaton(edtd.num_types() + 1, edtd.sigma.size());
  automaton.AddInitial(0);
  for (int tau : edtd.start_types) {
    automaton.AddTransition(0, edtd.mu[tau], tau + 1);
  }
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    Nfa trimmed = edtd.content[tau].Trimmed();
    std::vector<bool> occurs(edtd.num_types(), false);
    for (int q = 0; q < trimmed.num_states(); ++q) {
      for (int t = 0; t < edtd.num_types(); ++t) {
        if (!trimmed.Next(q, t).empty()) occurs[t] = true;
      }
    }
    for (int t = 0; t < edtd.num_types(); ++t) {
      if (occurs[t]) {
        automaton.AddTransition(tau + 1, edtd.mu[t], t + 1);
      }
    }
  }
  return automaton;
}

std::vector<int> PossibleTypesNfa(const EdtdNfa& edtd, const Tree& subtree) {
  std::vector<std::vector<int>> child_types;
  child_types.reserve(subtree.children.size());
  for (const Tree& child : subtree.children) {
    child_types.push_back(PossibleTypesNfa(edtd, child));
    if (child_types.back().empty()) return {};
  }
  std::vector<int> result;
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    if (edtd.mu[tau] != subtree.label) continue;
    const Nfa& nfa = edtd.content[tau];
    StateSet states = nfa.initial();
    for (const std::vector<int>& options : child_types) {
      StateSet next;
      for (int q : states) {
        for (int candidate : options) {
          for (int r : nfa.Next(q, candidate)) StateSetInsert(next, r);
        }
      }
      states = std::move(next);
      if (states.empty()) break;
    }
    for (int q : states) {
      if (nfa.IsFinal(q)) {
        result.push_back(tau);
        break;
      }
    }
  }
  return result;
}

}  // namespace

EdtdNfa EdtdNfa::FromEdtd(const Edtd& edtd) {
  EdtdNfa result;
  result.sigma = edtd.sigma;
  result.types = edtd.types;
  result.mu = edtd.mu;
  result.start_types = edtd.start_types;
  result.content.reserve(edtd.content.size());
  for (const Dfa& dfa : edtd.content) result.content.push_back(dfa.ToNfa());
  return result;
}

int64_t EdtdNfa::Size() const {
  int64_t total = sigma.size() + num_types() +
                  static_cast<int64_t>(start_types.size());
  for (const Nfa& nfa : content) total += nfa.Size();
  return total;
}

bool EdtdNfa::Accepts(const Tree& tree) const {
  if (tree.label < 0 || tree.label >= sigma.size()) return false;
  for (int tau : PossibleTypesNfa(*this, tree)) {
    if (StateSetContains(start_types, tau)) return true;
  }
  return false;
}

Edtd EdtdNfa::Determinized() const {
  Edtd result;
  result.sigma = sigma;
  result.types = types;
  result.mu = mu;
  result.start_types = start_types;
  result.content.reserve(content.size());
  for (const Nfa& nfa : content) result.content.push_back(*MinimizeNfa(nfa));
  result.CheckWellFormed();
  return result;
}

StatusOr<EdtdNfa> ParseSchemaNfa(std::string_view text) {
  StatusOr<SchemaDeclarations> decls = ParseSchemaDeclarations(text);
  if (!decls.ok()) return decls.status();
  EdtdNfa edtd;
  edtd.sigma = decls->sigma;
  edtd.types = decls->types;
  edtd.mu = decls->mu;
  edtd.start_types = decls->start_types;
  for (const std::string& source : decls->content_sources) {
    StatusOr<RegexPtr> regex =
        ParseRegex(source, &edtd.types, /*intern_new_symbols=*/false);
    if (!regex.ok()) return regex.status();
    edtd.content.push_back(
        GlushkovAutomaton(**regex, edtd.types.size())->Trimmed());
  }
  return edtd;
}

bool IsSingleTypeNfa(const EdtdNfa& edtd) {
  Nfa automaton = TypeAutomatonNfa(edtd);
  for (int q = 0; q < automaton.num_states(); ++q) {
    for (int a = 0; a < automaton.num_symbols(); ++a) {
      if (automaton.Next(q, a).size() > 1) return false;
    }
  }
  return true;
}

bool IncludedInSingleTypeNfa(const EdtdNfa& d1, const EdtdNfa& d2) {
  STAP_CHECK(d1.sigma == d2.sigma);
  STAP_CHECK(IsSingleTypeNfa(d2));
  const int num_symbols = d1.sigma.size();
  Nfa a1 = TypeAutomatonNfa(d1);
  Nfa a2 = TypeAutomatonNfa(d2);

  // Root labels of d1 must be allowed by d2.
  std::vector<bool> d2_root(num_symbols, false);
  for (int tau : d2.start_types) d2_root[d2.mu[tau]] = true;
  for (int tau : d1.start_types) {
    if (!d2_root[d1.mu[tau]]) return false;
  }

  // Pair walk (Lemma 5.1): (state of A1, state of A2); A2 deterministic.
  std::unordered_set<uint64_t, U64Hash> seen;
  std::vector<std::pair<int, int>> worklist;
  auto visit = [&](int s1, int s2) {
    if (seen.insert(PackPair(s1, s2)).second) worklist.emplace_back(s1, s2);
  };
  visit(0, 0);
  size_t processed = 0;
  while (processed < worklist.size()) {
    auto [s1, s2] = worklist[processed];
    ++processed;
    if (s1 != 0) {
      STAP_CHECK(s2 != 0);
      // Content inclusion with NFA right-hand side: on-the-fly subset
      // construction (the PSPACE-flavored step of Lemma 5.1).
      Nfa image1 = TypeImage(d1.content[s1 - 1], d1.mu, num_symbols);
      Nfa image2 = TypeImage(d2.content[s2 - 1], d2.mu, num_symbols);
      if (!*NfaIncludedInNfa(image1, image2)) return false;
    }
    for (int a = 0; a < num_symbols; ++a) {
      const StateSet& next1 = a1.Next(s1, a);
      if (next1.empty()) continue;
      const StateSet& next2 = a2.Next(s2, a);
      if (next2.empty()) continue;  // the content check catches this case
      for (int t1 : next1) visit(t1, next2[0]);
    }
  }
  return true;
}

}  // namespace stap
