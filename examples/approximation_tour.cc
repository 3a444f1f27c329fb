// A guided tour of the paper's core mechanics on a tiny example:
//   1. why a union of XSDs fails EDC (Figure 1's subtree exchange),
//   2. the closure fixpoint and a derivation-tree witness (Lemma 2.17),
//   3. the type automaton and its determinization (Construction 3.1),
//   4. the resulting minimal upper approximation and its overhead,
//   5. the maximal lower approximation fixing one disjunct (Theorem 4.8).
#include <iostream>

#include "stap/approx/closure.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/schema/builder.h"
#include "stap/count/counter.h"
#include "stap/schema/minimize.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"

int main() {
  using namespace stap;  // NOLINT: example brevity

  // Two one-document schemas with sibling structure.
  auto make = [](const std::string& leaf) {
    SchemaBuilder builder;
    builder.AddType("R", "r", "X Y");
    builder.AddType("X", "x", "Leaf");
    builder.AddType("Y", "y", "Leaf");
    builder.AddType("Leaf", leaf, "%");
    builder.AddStart("R");
    return builder.Build();
  };
  Edtd d1 = make("a");
  Edtd d2 = make("b");
  auto [a1, a2] = AlignAlphabets(d1, d2);
  Alphabet& s = a1.sigma;
  int r = s.Find("r"), x = s.Find("x"), y = s.Find("y"), a = s.Find("a"),
      b = s.Find("b");

  std::cout << "== 1. The union escapes EDC =====================\n";
  Tree doc_a(r, {Tree(x, {Tree(a)}), Tree(y, {Tree(a)})});
  Tree doc_b(r, {Tree(x, {Tree(b)}), Tree(y, {Tree(b)})});
  std::cout << "L(D1) = { " << doc_a.ToString(s) << " }\n"
            << "L(D2) = { " << doc_b.ToString(s) << " }\n";
  Tree mixed = AncestorGuardedExchange(doc_a, {1}, doc_b, {1});
  std::cout << "Exchanging the y-subtrees (equal ancestor string r.y):\n  "
            << mixed.ToString(s)
            << "  <- in NEITHER language, yet forced into any XSD\n\n";

  std::cout << "== 2. Closure and derivation trees ==============\n";
  ClosureResult closure = CloseUnderExchange({doc_a, doc_b});
  std::cout << "closure(L(D1) ∪ L(D2)) has " << closure.trees.size()
            << " documents:\n";
  for (size_t i = 0; i < closure.trees.size(); ++i) {
    DerivationTree derivation = BuildDerivation(closure, static_cast<int>(i));
    std::cout << "  " << closure.trees[i].ToString(s)
              << "   (derivation height " << derivation.Height() << ")\n";
  }
  std::cout << "\n";

  std::cout << "== 3. Type automaton of the union ===============\n";
  Edtd union_edtd = EdtdUnion(a1, a2);
  TypeAutomaton automaton = BuildTypeAutomaton(union_edtd);
  std::cout << "Nondeterministic (two leaf types per path), "
            << automaton.nfa.num_states() << " states:\n"
            << automaton.nfa.ToString() << "\n";

  std::cout << "== 4. Minimal upper approximation ===============\n";
  DfaXsd upper = MinimizeXsd(MinimalUpperApproximation(union_edtd));
  std::cout << SchemaToText(StEdtdFromDfaXsd(upper));
  double union_count = 2.0;
  double upper_count =
      CountXsdByDepth(upper, {3, 2}, nullptr)->back().ToDouble();
  std::cout << "documents (depth<=3): union " << union_count
            << ", approximation " << upper_count << " -> overhead "
            << (upper_count - union_count) << "\n\n";

  std::cout << "== 5. Maximal lower approximation (fixing D1) ===\n";
  DfaXsd lower = *LowerUnionFixingFirst(a1, a2);
  std::cout << SchemaToText(StEdtdFromDfaXsd(lower));
  std::cout << "keeps D1: " << (lower.Accepts(doc_a) ? "yes" : "no")
            << ", keeps D2's document: "
            << (lower.Accepts(doc_b) ? "yes" : "no")
            << " (violating: exchanging it would escape the union)\n";
  return 0;
}
