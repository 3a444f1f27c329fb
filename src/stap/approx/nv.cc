#include "stap/approx/nv.h"

#include <deque>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/approx/upper_boolean.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

// DFA for { w : w uses only symbols with allowed[a] }.
Dfa WordsOver(const std::vector<bool>& allowed) {
  const int num_symbols = static_cast<int>(allowed.size());
  Dfa dfa(1, num_symbols);
  dfa.SetFinal(0);
  for (int a = 0; a < num_symbols; ++a) {
    if (allowed[a]) dfa.SetTransition(0, a, 0);
  }
  return dfa;
}

// DFA for { w : some position of w carries a symbol with marked[a] }.
Dfa ContainsMarked(const std::vector<bool>& marked) {
  const int num_symbols = static_cast<int>(marked.size());
  Dfa dfa(2, num_symbols);
  dfa.SetFinal(1);
  for (int a = 0; a < num_symbols; ++a) {
    dfa.SetTransition(0, a, marked[a] ? 1 : 0);
    dfa.SetTransition(1, a, 1);
  }
  return dfa;
}

// Is there a word in L(f1) with an occurrence of `a` at one position and
// an occurrence of a marked symbol at a *different* position? (Used for
// rule (iii) in the c-type seeds.)
bool HasHoleAndBadSibling(const Dfa& f1, int a,
                          const std::vector<bool>& marked) {
  if (f1.num_states() == 0) return false;
  // Flags: bit0 = hole role assigned, bit1 = bad-sibling role assigned.
  std::vector<bool> seen(static_cast<size_t>(f1.num_states()) * 4, false);
  std::deque<std::pair<int, int>> queue;  // (state, flags)
  auto visit = [&](int s, int flags) {
    size_t key = static_cast<size_t>(s) * 4 + flags;
    if (!seen[key]) {
      seen[key] = true;
      queue.emplace_back(s, flags);
    }
  };
  visit(f1.initial(), 0);
  while (!queue.empty()) {
    auto [s, flags] = queue.front();
    queue.pop_front();
    if (flags == 3 && f1.IsFinal(s)) return true;
    for (int c = 0; c < f1.num_symbols(); ++c) {
      int r = f1.Next(s, c);
      if (r == kNoState) continue;
      visit(r, flags);  // position takes no role
      if (c == a && (flags & 1) == 0) visit(r, flags | 1);
      if (marked[c] && (flags & 2) == 0) visit(r, flags | 2);
    }
  }
  return false;
}

struct ProductBuilder {
  DfaXsd x1;
  DfaXsd x2;
  NvAnalysis analysis;
  std::unordered_map<uint64_t, int, U64Hash> pair_ids;

  int Intern(int q1, int q2) {
    auto [it, inserted] =
        pair_ids.emplace(PackPair(q1, q2), analysis.pairs.size());
    if (inserted) {
      NvAnalysis::PairState state;
      state.q1 = q1;
      state.q2 = q2;
      analysis.pairs.push_back(state);
    }
    return it->second;
  }

  void Build() {
    const int num_symbols = analysis.num_symbols;
    Intern(0, 0);  // the product initial state
    size_t processed = 0;
    while (processed < analysis.pairs.size()) {
      const int q1 = analysis.pairs[processed].q1;
      const int q2 = analysis.pairs[processed].q2;
      ++processed;
      for (int a = 0; a < num_symbols; ++a) {
        int r1 = q1 == kNoState ? kNoState : x1.automaton.Next(q1, a);
        int r2 = q2 == kNoState ? kNoState : x2.automaton.Next(q2, a);
        if (r1 == kNoState && r2 == kNoState) continue;
        Intern(r1, r2);
      }
    }
    analysis.transition.assign(analysis.pairs.size() * num_symbols, -1);
    for (size_t p = 0; p < analysis.pairs.size(); ++p) {
      const int q1 = analysis.pairs[p].q1;
      const int q2 = analysis.pairs[p].q2;
      for (int a = 0; a < num_symbols; ++a) {
        int r1 = q1 == kNoState ? kNoState : x1.automaton.Next(q1, a);
        int r2 = q2 == kNoState ? kNoState : x2.automaton.Next(q2, a);
        if (r1 == kNoState && r2 == kNoState) continue;
        analysis.transition[p * num_symbols + a] =
            pair_ids.at(PackPair(r1, r2));
      }
    }
  }
};

}  // namespace

std::string NvAnalysis::ToString(const Alphabet& sigma) const {
  (void)sigma;
  std::ostringstream os;
  for (size_t p = 0; p < pairs.size(); ++p) {
    os << "pair " << p << " (q1=" << pairs[p].q1 << ", q2=" << pairs[p].q2
       << ")" << (pairs[p].s_type ? " s-type" : "")
       << (pairs[p].c_type ? " c-type" : "") << "\n";
  }
  return os.str();
}

NvAnalysis AnalyzeNv(const Edtd& d1_in, const Edtd& d2_in) {
  auto [a1, a2] = AlignAlphabets(d1_in, d2_in);
  Edtd r1 = ReduceEdtd(a1);
  Edtd r2 = ReduceEdtd(a2);
  STAP_CHECK(IsSingleType(r1));
  STAP_CHECK(IsSingleType(r2));

  ProductBuilder builder;
  builder.x1 = DfaXsdFromStEdtd(r1);
  builder.x2 = DfaXsdFromStEdtd(r2);
  builder.analysis.num_symbols = builder.x1.sigma.size();
  builder.Build();

  NvAnalysis& analysis = builder.analysis;
  const DfaXsd& x1 = builder.x1;
  const DfaXsd& x2 = builder.x2;
  const int num_symbols = analysis.num_symbols;
  const int num_pairs = static_cast<int>(analysis.pairs.size());

  // ---- s-types -----------------------------------------------------------
  // Backward closure, along D1-structure edges, of the "bad" pairs where
  // D1's content model is not included in D2's.
  std::vector<bool> bad(num_pairs, false);
  for (int p = 1; p < num_pairs; ++p) {
    const auto& pair = analysis.pairs[p];
    if (pair.q1 == kNoState) continue;
    bad[p] = pair.q2 == kNoState ||
             !DfaIncludedIn(x1.content[pair.q1], x2.content[pair.q2]);
  }
  std::vector<bool> s_type = bad;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int p = 1; p < num_pairs; ++p) {
      if (s_type[p] || analysis.pairs[p].q1 == kNoState) continue;
      for (int a = 0; a < num_symbols; ++a) {
        int succ = analysis.Next(p, a);
        if (succ < 0 || analysis.pairs[succ].q1 == kNoState) continue;
        if (s_type[succ]) {
          s_type[p] = true;
          changed = true;
          break;
        }
      }
    }
  }
  for (int p = 1; p < num_pairs; ++p) analysis.pairs[p].s_type = s_type[p];

  // ---- c-types -----------------------------------------------------------
  // Seeds:
  //  (root) the hole-only context at a D1 root label that D2 does not
  //         allow as a root;
  //  (ii)   a parent level realizable in D1 whose Σ-string violates the
  //         D2 content model;
  //  (iii)  a parent level realizable in D1 with an s-typed sibling.
  // Then close forward along product edges (a c-typed parent makes every
  // child c-typed — the (i) rule / Lemma 4.5(c)).
  std::vector<bool> c_type(num_pairs, false);
  for (int a = 0; a < num_symbols; ++a) {
    int root_pair = analysis.Next(0, a);
    if (root_pair < 0) continue;
    const auto& pair = analysis.pairs[root_pair];
    if (pair.q1 == kNoState) continue;  // not a D1 root label
    bool d2_allows = pair.q2 != kNoState &&
                     StateSetContains(x2.start_symbols, a);
    if (!d2_allows) c_type[root_pair] = true;
  }
  for (int p = 1; p < num_pairs; ++p) {
    const auto& parent = analysis.pairs[p];
    if (parent.q1 == kNoState) continue;
    const Dfa& f1 = x1.content[parent.q1];
    // Symbols whose successor pair is an s-type.
    std::vector<bool> s_marked(num_symbols, false);
    for (int b = 0; b < num_symbols; ++b) {
      int succ = analysis.Next(p, b);
      if (succ >= 0 && analysis.pairs[succ].s_type) s_marked[b] = true;
    }
    for (int a = 0; a < num_symbols; ++a) {
      int child = analysis.Next(p, a);
      if (child < 0 || analysis.pairs[child].q1 == kNoState) continue;
      if (c_type[child]) continue;
      // (ii): a D1 level containing `a` that D2's content model rejects.
      bool seed = false;
      if (parent.q2 == kNoState) {
        seed = true;  // every D1 level here is invalid for D2
      } else {
        std::vector<bool> only_a(num_symbols, false);
        only_a[a] = true;
        Dfa witness = DfaIntersection(
            DfaIntersection(f1, ContainsMarked(only_a)),
            DfaComplement(x2.content[parent.q2]));
        seed = !witness.IsEmpty();
      }
      // (iii): a D1 level with the hole at `a` and an s-typed sibling.
      if (!seed) seed = HasHoleAndBadSibling(f1, a, s_marked);
      if (seed) c_type[child] = true;
    }
  }
  // Forward closure along product edges between D1-realizable pairs.
  changed = true;
  while (changed) {
    changed = false;
    for (int p = 1; p < num_pairs; ++p) {
      if (!c_type[p]) continue;
      for (int a = 0; a < num_symbols; ++a) {
        int succ = analysis.Next(p, a);
        if (succ < 0 || analysis.pairs[succ].q1 == kNoState) continue;
        if (!c_type[succ]) {
          c_type[succ] = true;
          changed = true;
        }
      }
    }
  }
  for (int p = 1; p < num_pairs; ++p) analysis.pairs[p].c_type = c_type[p];
  return builder.analysis;
}

DfaXsd NonViolating(const Edtd& d1_in, const Edtd& d2_in) {
  auto [a1, a2] = AlignAlphabets(d1_in, d2_in);
  Edtd r1 = ReduceEdtd(a1);
  Edtd r2 = ReduceEdtd(a2);
  STAP_CHECK(IsSingleType(r1));
  STAP_CHECK(IsSingleType(r2));
  NvAnalysis analysis = AnalyzeNv(r1, r2);
  DfaXsd x1 = DfaXsdFromStEdtd(r1);
  DfaXsd x2 = DfaXsdFromStEdtd(r2);
  const int num_symbols = analysis.num_symbols;

  // States of D' are the product pairs with a live D2 coordinate.
  const int num_pairs = static_cast<int>(analysis.pairs.size());
  std::vector<int> remap(num_pairs, kNoState);
  remap[0] = 0;
  int next_id = 1;
  for (int p = 1; p < num_pairs; ++p) {
    if (analysis.pairs[p].q2 != kNoState) remap[p] = next_id++;
  }

  DfaXsd result;
  result.sigma = x2.sigma;
  result.start_symbols = x2.start_symbols;
  result.automaton = Dfa(next_id, num_symbols);
  result.automaton.SetInitial(0);
  result.state_label.assign(next_id, kNoSymbol);
  result.content.assign(next_id, Dfa::EmptyLanguage(num_symbols));

  for (int p = 0; p < num_pairs; ++p) {
    if (remap[p] == kNoState) continue;
    for (int a = 0; a < num_symbols; ++a) {
      int succ = analysis.Next(p, a);
      if (succ >= 0 && remap[succ] != kNoState) {
        result.automaton.SetTransition(remap[p], a, remap[succ]);
      }
    }
    if (p == 0) continue;

    const auto& pair = analysis.pairs[p];
    result.state_label[remap[p]] = x2.state_label[pair.q2];
    const Dfa& f2 = x2.content[pair.q2];
    Dfa f1 = pair.q1 != kNoState ? x1.content[pair.q1]
                                 : Dfa::EmptyLanguage(num_symbols);
    if (pair.c_type) {
      // All of D1's constraints apply below a c-type (rule 1 of d').
      result.content[remap[p]] = *Minimize(DfaIntersection(f2, f1));
    } else {
      // Either no child leads to an s-type, or the whole level is also
      // D1-valid (rule 2 of d').
      std::vector<bool> non_slab(num_symbols, true);
      std::vector<bool> slab(num_symbols, false);
      bool any_slab = false;
      for (int a = 0; a < num_symbols; ++a) {
        int succ = analysis.Next(p, a);
        if (succ >= 0 && analysis.pairs[succ].s_type) {
          non_slab[a] = false;
          slab[a] = true;
          any_slab = true;
        }
      }
      Dfa safe = DfaIntersection(f2, WordsOver(non_slab));
      if (any_slab) {
        Dfa risky = DfaIntersection(DfaIntersection(f2, f1),
                                    ContainsMarked(slab));
        result.content[remap[p]] = *Minimize(DfaUnion(safe, risky));
      } else {
        result.content[remap[p]] = *Minimize(safe);
      }
    }
  }
  return MinimizeXsd(result);
}

DfaXsd LowerUnionFixingFirst(const Edtd& d1, const Edtd& d2) {
  DfaXsd nv = NonViolating(d1, d2);
  Edtd nv_edtd = StEdtdFromDfaXsd(nv);
  auto [d1_aligned, nv_aligned] = AlignAlphabets(d1, nv_edtd);
  return MinimizeXsd(*UpperUnion(d1_aligned, nv_aligned));
}

}  // namespace stap
