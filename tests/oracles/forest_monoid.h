// Monoid forest automata (paper, Section 4.4.1, after [6]).
//
// An MFA is a deterministic forest acceptor: a finite monoid (Q, +, q0),
// a transition function δ : Σ × Q → Q, and final states. It evaluates
//   A(ε) = q0,  A(a(s)) = δ(a, A(s)),  A(t1 … tn) = A(t1) + … + A(tn),
// and Theorem 4.12 uses MFAs to regularize maximal lower approximations.
//
// Besides the abstract structure (explicit operation table, axiom
// checker), this module constructs a concrete MFA equivalent to a given
// DFA-based XSD: monoid elements are tuples of partial transformations —
// for every XSD state q, the effect of the forest on q's content DFA
// (⊥ when some tree of the forest is invalid in that context). A virtual
// root state turns tree acceptance into forest acceptance.
//
// No command evaluates an MFA. MfaFromXsd shares no code with the
// library's validators, so the tests use it as an independent XSD
// validator (streaming_differential_test); it lives in stap_oracles.
#ifndef STAP_TESTS_ORACLES_FOREST_MONOID_H_
#define STAP_TESTS_ORACLES_FOREST_MONOID_H_

#include <string>
#include <vector>

#include "stap/schema/single_type.h"
#include "stap/tree/tree.h"

namespace stap {

// A forest: an ordered sequence of trees.
using Forest = std::vector<Tree>;

// A finite monoid given by its operation table.
class FiniteMonoid {
 public:
  FiniteMonoid(int size, int identity, std::vector<int> table);

  int size() const { return size_; }
  int identity() const { return identity_; }
  int Compose(int a, int b) const { return table_[a * size_ + b]; }

  // Verifies associativity and the identity laws (cubic; for tests).
  bool CheckAxioms() const;

 private:
  int size_;
  int identity_;
  std::vector<int> table_;  // a * size_ + b
};

// A monoid forest automaton with explicit tables.
class MonoidForestAutomaton {
 public:
  MonoidForestAutomaton(FiniteMonoid monoid, int num_symbols,
                        std::vector<int> delta, std::vector<bool> final);

  const FiniteMonoid& monoid() const { return monoid_; }
  int num_symbols() const { return num_symbols_; }

  // δ(symbol, element).
  int Apply(int symbol, int element) const {
    return delta_[symbol * monoid_.size() + element];
  }

  int EvalTree(const Tree& tree) const;
  int EvalForest(const Forest& forest) const;
  bool Accepts(const Forest& forest) const;

  // Acceptance of the single-tree forest {tree}.
  bool AcceptsTree(const Tree& tree) const;

 private:
  FiniteMonoid monoid_;
  int num_symbols_;
  std::vector<int> delta_;  // symbol * |M| + element
  std::vector<bool> final_;
};

// Builds an MFA with AcceptsTree == xsd.Accepts by materializing the
// reachable transformation monoid (worst-case exponential in the content
// DFA sizes; intended for small schemas and the Section 4.4 experiments).
MonoidForestAutomaton MfaFromXsd(const DfaXsd& xsd);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_FOREST_MONOID_H_
