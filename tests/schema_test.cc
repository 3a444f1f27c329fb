// Unit tests for EDTDs, reduction, and type automata.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/automata/ops.h"
#include "stap/base/trace.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/edtd.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

// A DTD as an EDTD with one type per symbol (type ids = symbol ids):
// store -> book*, book -> (title chapter*), title/chapter leaves.
Edtd StoreDtd() {
  Edtd edtd;
  edtd.sigma = Alphabet({"store", "book", "title", "chapter"});
  edtd.types = edtd.sigma;
  edtd.mu = {0, 1, 2, 3};
  edtd.content.assign(4, Dfa::EpsilonOnly(4));
  // store: book*
  Dfa store(1, 4);
  store.SetFinal(0);
  store.SetTransition(0, 1, 0);
  edtd.content[0] = store;
  // book: title chapter*
  Dfa book(2, 4);
  book.SetTransition(0, 2, 1);
  book.SetTransition(1, 3, 1);
  book.SetFinal(1);
  edtd.content[1] = book;
  edtd.start_types = {0};
  edtd.CheckWellFormed();
  return edtd;
}

TEST(EdtdTest, DtdShapedSchemaAcceptsAndRejects) {
  Edtd dtd = StoreDtd();
  // store(book(title), book(title, chapter, chapter))
  Tree good(0, {Tree(1, {Tree(2)}), Tree(1, {Tree(2), Tree(3), Tree(3)})});
  EXPECT_TRUE(dtd.Accepts(good));
  EXPECT_TRUE(dtd.Accepts(Tree(0)));             // empty store
  EXPECT_FALSE(dtd.Accepts(Tree(1, {Tree(2)})));  // wrong root
  Tree bad(0, {Tree(1, {Tree(3)})});             // chapter before title
  EXPECT_FALSE(dtd.Accepts(bad));
  Tree nested(0, {Tree(1, {Tree(2, {Tree(3)})})});  // title not a leaf
  EXPECT_FALSE(dtd.Accepts(nested));
}

// The classic non-single-type EDTD: root a whose single child is b, where
// the b-child's content depends on a *sibling-invisible* choice of type.
Edtd DiningEdtd() {
  SchemaBuilder builder;
  builder.AddType("Root1", "a", "B1");
  builder.AddType("Root2", "a", "B2");
  builder.AddType("B1", "b", "C");
  builder.AddType("B2", "b", "%");
  builder.AddType("C", "c", "%");
  builder.AddStart("Root1");
  builder.AddStart("Root2");
  return builder.Build();
}

TEST(EdtdTest, MembershipUsesTyping) {
  Edtd edtd = DiningEdtd();
  Alphabet& sigma = edtd.sigma;
  int a = sigma.Find("a"), b = sigma.Find("b"), c = sigma.Find("c");
  EXPECT_TRUE(edtd.Accepts(Tree(a, {Tree(b, {Tree(c)})})));
  EXPECT_TRUE(edtd.Accepts(Tree(a, {Tree(b)})));
  EXPECT_FALSE(edtd.Accepts(Tree(a, {Tree(c)})));
  EXPECT_FALSE(edtd.Accepts(Tree(b)));
  EXPECT_FALSE(edtd.Accepts(Tree(a, {Tree(b, {Tree(c), Tree(c)})})));
}

TEST(EdtdTest, PossibleTypesReportsAllAssignments) {
  Edtd edtd = DiningEdtd();
  int b = edtd.sigma.Find("b");
  // A bare b-leaf can be typed B2 (content ε) but not B1.
  std::vector<int> types = edtd.PossibleTypes(Tree(b));
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(edtd.types.Name(types[0]), "B2");
}

TEST(EdtdTest, OccurringTypesComesFromTrimmedContent) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "X | Y Z");  // Z unsatisfiable below
  builder.AddType("X", "b", "%");
  builder.AddType("Y", "b", "%");
  builder.AddType("Z", "c", "Z");  // unproductive: infinite recursion
  builder.AddStart("R");
  Edtd edtd = builder.Build();
  std::vector<int> occurring = edtd.OccurringTypes(0);
  // All three occur syntactically (trimming content DFAs alone does not
  // know about productivity)...
  EXPECT_EQ(occurring.size(), 3u);
  // ...but reduction removes Z and with it the Y Z alternative.
  Edtd reduced = ReduceEdtd(edtd);
  EXPECT_EQ(reduced.num_types(), 2);  // R and X
  EXPECT_EQ(reduced.types.Find("Z"), kNoSymbol);
  EXPECT_EQ(reduced.types.Find("Y"), kNoSymbol);
}

TEST(ReduceTest, PreservesLanguage) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "X | Y Z | X X");
  builder.AddType("X", "b", "%");
  builder.AddType("Y", "b", "%");
  builder.AddType("Z", "c", "Z");
  builder.AddType("Orphan", "c", "%");  // unreachable
  builder.AddStart("R");
  Edtd edtd = builder.Build();
  Edtd reduced = ReduceEdtd(edtd);
  EXPECT_TRUE(IsReduced(reduced));
  for (const Tree& tree : EnumerateTrees({3, 2, 3})) {
    EXPECT_EQ(edtd.Accepts(tree), reduced.Accepts(tree))
        << tree.ToString(edtd.sigma);
  }
}

TEST(ReduceTest, EmptyLanguageGivesZeroTypes) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R");  // no finite tree
  builder.AddStart("R");
  Edtd reduced = ReduceEdtd(builder.Build());
  EXPECT_EQ(reduced.num_types(), 0);
  EXPECT_TRUE(reduced.start_types.empty());
}

// The types a reduction keeps, by the definitions run naively: a type is
// productive if a word over productive types reaches a final state of
// its content (iterated to a fixpoint); it is kept if it is productive
// and reachable from a productive start type through transitions that
// lie on such a word.
std::vector<bool> NaiveKeptTypes(const Edtd& edtd) {
  const int n = edtd.num_types();
  // States of `dfa` that reach a final state over `allowed` symbols.
  auto live_states = [](const Dfa& dfa, const std::vector<bool>& allowed) {
    std::vector<bool> live(dfa.num_states(), false);
    for (int s = 0; s < dfa.num_states(); ++s) live[s] = dfa.IsFinal(s);
    for (bool changed = true; changed;) {
      changed = false;
      for (int s = 0; s < dfa.num_states(); ++s) {
        for (int t = 0; t < dfa.num_symbols() && !live[s]; ++t) {
          const int r = dfa.Next(s, t);
          if (allowed[t] && r != kNoState && live[r]) live[s] = changed = true;
        }
      }
    }
    return live;
  };
  std::vector<bool> productive(n, false);
  for (bool changed = true; changed;) {
    changed = false;
    for (int tau = 0; tau < n; ++tau) {
      const Dfa& dfa = edtd.content[tau];
      if (productive[tau] || dfa.num_states() == 0) continue;
      if (live_states(dfa, productive)[dfa.initial()]) {
        productive[tau] = changed = true;
      }
    }
  }
  std::vector<bool> kept(n, false);
  std::vector<int> stack;
  for (int tau : edtd.start_types) {
    if (productive[tau] && !kept[tau]) {
      kept[tau] = true;
      stack.push_back(tau);
    }
  }
  while (!stack.empty()) {
    const Dfa& dfa = edtd.content[stack.back()];
    stack.pop_back();
    const std::vector<bool> live = live_states(dfa, productive);
    // Forward from the initial state over productive types.
    std::vector<bool> seen(dfa.num_states(), false);
    std::vector<int> frontier = {dfa.initial()};
    seen[dfa.initial()] = true;
    while (!frontier.empty()) {
      const int s = frontier.back();
      frontier.pop_back();
      for (int t = 0; t < n; ++t) {
        const int r = dfa.Next(s, t);
        if (!productive[t] || r == kNoState) continue;
        if (live[r] && !kept[t]) {
          kept[t] = true;
          stack.push_back(t);
        }
        if (!seen[r]) {
          seen[r] = true;
          frontier.push_back(r);
        }
      }
    }
  }
  return kept;
}

// The same EDTD with its type ids shuffled: type tau becomes perm[tau].
Edtd WithShuffledTypes(const Edtd& edtd, std::mt19937* rng) {
  const int n = edtd.num_types();
  std::vector<int> perm(n);
  for (int tau = 0; tau < n; ++tau) perm[tau] = tau;
  std::shuffle(perm.begin(), perm.end(), *rng);
  std::vector<std::string> names(n);
  for (int tau = 0; tau < n; ++tau) names[perm[tau]] = edtd.types.Name(tau);
  Edtd result;
  result.sigma = edtd.sigma;
  result.types = Alphabet(names);
  result.mu.resize(n);
  result.content.resize(n);
  for (int tau = 0; tau < n; ++tau) {
    result.mu[perm[tau]] = edtd.mu[tau];
    result.content[perm[tau]] = RemapSymbols(edtd.content[tau], perm, n);
  }
  for (int tau : edtd.start_types) StateSetInsert(result.start_types, perm[tau]);
  result.CheckWellFormed();
  return result;
}

TEST(ReduceTest, KeepsExactlyTheNaiveFixpointsTypes) {
  // Random reduced EDTDs with shuffled type ids (so types turn productive
  // in every order), damaged so that some types lose their final states
  // or gain transitions to types that lose theirs: the reduction must
  // keep exactly the types the naive fixpoints keep.
  for (int i = 0; i < 300; ++i) {
    std::mt19937 rng(0x9ED0 + i);
    RandomSchemaParams params;
    params.num_types = 3 + i % 6;
    params.repeat_percent = i % 3 == 0 ? 40 : 0;
    Edtd edtd = WithShuffledTypes(RandomEdtd(&rng, params), &rng);
    const int n = edtd.num_types();
    for (int tau = 0; tau < n; ++tau) {
      Dfa& dfa = edtd.content[tau];
      if (rng() % 4 == 0) {
        for (int s = 0; s < dfa.num_states(); ++s) dfa.SetFinal(s, false);
      }
      if (rng() % 3 == 0 && dfa.num_states() > 0) {
        const int s = static_cast<int>(rng() % dfa.num_states());
        const int t = static_cast<int>(rng() % n);
        if (dfa.Next(s, t) == kNoState) {
          dfa.SetTransition(s, t, static_cast<int>(rng() % dfa.num_states()));
        }
      }
    }
    const std::vector<bool> kept = NaiveKeptTypes(edtd);
    const Edtd reduced = ReduceEdtd(edtd);
    for (int tau = 0; tau < n; ++tau) {
      EXPECT_EQ(reduced.types.Find(edtd.types.Name(tau)) != kNoSymbol,
                kept[tau])
          << "schema " << i << ", type " << edtd.types.Name(tau) << "\n"
          << edtd.ToString();
    }
    if (HasFailure()) return;
  }
}

// A well-formed, unreduced DfaXsd: q_init anywhere, random labels, random
// label-respecting transitions (some states unreachable), random start
// symbols (some with no transition) and random unminimized contents (some
// accepting nothing, some needing unproductive successors).
DfaXsd RandomRawXsd(std::mt19937* rng, int num_states, int num_symbols) {
  DfaXsd xsd;
  for (int a = 0; a < num_symbols; ++a) {
    xsd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
  }
  const int init = static_cast<int>((*rng)() % num_states);
  xsd.automaton = Dfa(num_states, num_symbols);
  xsd.automaton.SetInitial(init);
  xsd.state_label.assign(num_states, kNoSymbol);
  std::vector<std::vector<int>> by_label(num_symbols);
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    xsd.state_label[q] = static_cast<int>((*rng)() % num_symbols);
    by_label[xsd.state_label[q]].push_back(q);
  }
  for (int q = 0; q < num_states; ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      if (by_label[a].empty() || (*rng)() % 10 < 3) continue;
      xsd.automaton.SetTransition(
          q, a, by_label[a][(*rng)() % by_label[a].size()]);
    }
  }
  for (int a = 0; a < num_symbols; ++a) {
    if ((*rng)() % 10 < 6) xsd.start_symbols.push_back(a);
  }
  xsd.content.assign(num_states, Dfa::EmptyLanguage(num_symbols));
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    const int size = 1 + static_cast<int>((*rng)() % 4);
    xsd.content[q] = *Determinize(RandomNfa(rng, size, num_symbols, 2));
    if ((*rng)() % 5 == 0) {
      for (int s = 0; s < xsd.content[q].num_states(); ++s) {
        xsd.content[q].SetFinal(s, false);
      }
    }
  }
  xsd.CheckWellFormed();
  return xsd;
}

// The states an XSD reduction keeps, by the definitions run naively:
// restrict each content to the symbols whose successor is productive and
// test it for emptiness until nothing changes; then walk from the start
// symbols over the symbols of the trimmed restricted contents.
std::vector<bool> NaiveKeptStates(const DfaXsd& xsd) {
  const Dfa& delta = xsd.automaton;
  const int n = delta.num_states();
  const int num_symbols = xsd.sigma.size();
  std::vector<bool> productive(n, false);
  auto restricted = [&](int q) {
    const Dfa& content = xsd.content[q];
    Dfa result(content.num_states(), num_symbols);
    result.SetInitial(content.initial());
    for (int s = 0; s < content.num_states(); ++s) {
      result.SetFinal(s, content.IsFinal(s));
      for (int a = 0; a < num_symbols; ++a) {
        const int r = delta.Next(q, a);
        if (r != kNoState && productive[r] && content.Next(s, a) != kNoState) {
          result.SetTransition(s, a, content.Next(s, a));
        }
      }
    }
    return result.Trimmed();
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (int q = 0; q < n; ++q) {
      if (q != delta.initial() && !productive[q] && !restricted(q).IsEmpty()) {
        productive[q] = changed = true;
      }
    }
  }
  std::vector<bool> kept(n, false);
  std::vector<int> stack;
  auto keep = [&](int r) {
    if (r != kNoState && productive[r] && !kept[r]) {
      kept[r] = true;
      stack.push_back(r);
    }
  };
  for (int a : xsd.start_symbols) keep(delta.Next(delta.initial(), a));
  while (!stack.empty()) {
    const int q = stack.back();
    stack.pop_back();
    const Dfa trimmed = restricted(q);
    for (int s = 0; s < trimmed.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (trimmed.Next(s, a) != kNoState) keep(delta.Next(q, a));
      }
    }
  }
  return kept;
}

TEST(ReduceTest, KeepsExactlyTheNaiveFixpointsXsdStates) {
  // The kernel on the XSD graph (symbol a of state q leads to δ(q, a),
  // the start symbols' states are the roots) keeps exactly the states the
  // naive fixpoints keep, and MinimizeXsd's reduction is that set plus
  // q_init.
  int pruned = 0;
  for (int i = 0; i < 300; ++i) {
    std::mt19937 rng(0x05D0 + i);
    const DfaXsd xsd = RandomRawXsd(&rng, 2 + i % 10, 1 + i % 4);
    const Dfa& delta = xsd.automaton;
    ContentGraph graph;
    graph.successor = &delta;
    std::vector<int> roots;
    for (int q = 0; q < delta.num_states(); ++q) {
      graph.content.push_back(q == delta.initial() ? nullptr : &xsd.content[q]);
    }
    for (int a : xsd.start_symbols) {
      if (delta.Next(delta.initial(), a) != kNoState) {
        roots.push_back(delta.Next(delta.initial(), a));
      }
    }
    const std::vector<bool> kept = NaiveKeptStates(xsd);
    EXPECT_EQ(UsefulNodes(graph, roots), kept) << "xsd " << i << "\n"
                                               << xsd.ToString();

    TraceSession session;
    session.Start();
    MinimizeXsd(xsd);
    session.Stop();
    int64_t states_reduced = -1;
    for (const TraceSession::PhaseRow& row : session.PhaseTable()) {
      if (row.name != "schema.minimize_xsd") continue;
      for (const auto& [key, value] : row.int_args) {
        if (key == "states_reduced") states_reduced = value;
      }
    }
    const int64_t num_kept = std::count(kept.begin(), kept.end(), true);
    EXPECT_EQ(states_reduced, num_kept + 1) << "xsd " << i;
    if (num_kept > 0 && num_kept + 1 < delta.num_states()) ++pruned;
    if (HasFailure()) return;
  }
  // The stream must exercise pruning, not just empty languages.
  EXPECT_GT(pruned, 30);
}

TEST(ReduceTest, IsIdempotent) {
  Edtd reduced = ReduceEdtd(DiningEdtd());
  Edtd twice = ReduceEdtd(reduced);
  EXPECT_EQ(reduced.num_types(), twice.num_types());
  EXPECT_EQ(reduced.start_types, twice.start_types);
  EXPECT_EQ(reduced.mu, twice.mu);
  for (int tau = 0; tau < reduced.num_types(); ++tau) {
    EXPECT_EQ(reduced.content[tau], twice.content[tau]) << tau;
  }
}

TEST(TypeAutomatonTest, Example26Structure) {
  // The worked Example 2.6: τ1 -> τ1 + τ2¹, τ2¹ -> τ2² + ε,
  // τ2² -> τ1 + τ2² + ε, with μ(τ1)=a, μ(τ2¹)=μ(τ2²)=b.
  Edtd edtd = Example26Edtd();
  TypeAutomaton automaton = BuildTypeAutomaton(edtd);
  int a = edtd.sigma.Find("a"), b = edtd.sigma.Find("b");
  int t1 = edtd.types.Find("t1"), t2x = edtd.types.Find("t2x"),
      t2y = edtd.types.Find("t2y");

  auto next = [&](int state, int symbol) {
    return automaton.nfa.Next(state, symbol);
  };
  using S = StateSet;
  int q1 = TypeAutomaton::StateOfType(t1);
  int q2x = TypeAutomaton::StateOfType(t2x);
  int q2y = TypeAutomaton::StateOfType(t2y);
  EXPECT_EQ(next(TypeAutomaton::kInit, a), S{q1});
  EXPECT_EQ(next(TypeAutomaton::kInit, b), S{});
  EXPECT_EQ(next(q1, a), S{q1});
  EXPECT_EQ(next(q1, b), S{q2x});
  EXPECT_EQ(next(q2x, b), S{q2y});
  EXPECT_EQ(next(q2x, a), S{});
  EXPECT_EQ(next(q2y, a), S{q1});
  EXPECT_EQ(next(q2y, b), S{q2y});

  // Labels follow μ.
  EXPECT_EQ(automaton.state_label[q1], a);
  EXPECT_EQ(automaton.state_label[q2x], b);
  EXPECT_EQ(automaton.state_label[TypeAutomaton::kInit], kNoSymbol);
}

TEST(TypeAutomatonTest, TypesAfterTracksAncestorStrings) {
  Edtd edtd = Example26Edtd();
  int a = edtd.sigma.Find("a"), b = edtd.sigma.Find("b");
  EXPECT_EQ(BuildTypeAutomaton(edtd).TypesAfter({a, a, b, b}).size(), 1u);
  EXPECT_EQ(BuildTypeAutomaton(edtd).TypesAfter({b}).size(), 0u);
}

TEST(SingleTypeTest, DetectsViolations) {
  EXPECT_TRUE(IsSingleType(Example26Edtd()));
  EXPECT_FALSE(IsSingleType(DiningEdtd()));  // two a-start types
  // Two b-types inside one content model (the paper's example after
  // Definition 2.4: d(τ) = τ1 + τ2 with μ(τ1) = μ(τ2)).
  SchemaBuilder builder;
  builder.AddType("R", "a", "B1 | B2");
  builder.AddType("B1", "b", "%");
  builder.AddType("B2", "b", "B1?");
  builder.AddStart("R");
  EXPECT_FALSE(IsSingleType(builder.Build()));
}

TEST(SingleTypeTest, DtdsAreAlwaysSingleType) {
  EXPECT_TRUE(IsSingleType(StoreDtd()));
}

}  // namespace
}  // namespace stap
