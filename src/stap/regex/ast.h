// Regular expression ASTs over integer alphabets.
//
// Grammar (paper, Section 2.1, extended with counted repetition):
//   r ::= ∅ | ε | a | r·r | r+r | r* | r+ | r? | r{n,m} | r{n,}
// Nodes are immutable and shared; RegexPtr values are cheap to copy and
// sub-expressions may be reused freely.
//
// Counted repetition r{n,m} denotes the union of r^n .. r^m (r{n,} the
// union of r^n, r^{n+1}, ...). It is a first-class node so that W3C-XSD
// occurrence bounds survive import → export round trips instead of being
// expanded; compilation to automata expands it (regex/glushkov.h) under a
// Budget, so adversarial bounds fail with kResourceExhausted instead of
// exhausting memory.
#ifndef STAP_REGEX_AST_H_
#define STAP_REGEX_AST_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

enum class RegexKind {
  kEmptySet,  // ∅
  kEpsilon,   // ε
  kSymbol,    // a
  kConcat,    // r1 · r2 · ... · rk
  kUnion,     // r1 + r2 + ... + rk
  kStar,      // r*
  kPlus,      // r+
  kOptional,  // r?
  kRepeat,    // r{n,m} / r{n,}
};

class Regex;
using RegexPtr = std::shared_ptr<const Regex>;

class Regex {
 public:
  // Sentinel for the upper bound of r{n,} (no maximum).
  static constexpr int kUnboundedRepeat = -1;
  // Largest accepted repetition bound. Far above anything compilable
  // (compilation expands bounds under a Budget), but small enough that
  // bound arithmetic never overflows int.
  static constexpr int kMaxRepeatBound = 1000000000;

  static RegexPtr EmptySet();
  static RegexPtr Epsilon();
  static RegexPtr Symbol(int symbol);
  // Concat/Union of zero children normalize to Epsilon/EmptySet; a single
  // child is returned unwrapped.
  static RegexPtr Concat(std::vector<RegexPtr> children);
  static RegexPtr Union(std::vector<RegexPtr> children);
  static RegexPtr Star(RegexPtr child);
  static RegexPtr Plus(RegexPtr child);
  static RegexPtr Optional(RegexPtr child);
  // Counted repetition r{min,max}; max == kUnboundedRepeat means r{min,}.
  // Requires 0 <= min <= max <= kMaxRepeatBound (checked). Degenerate
  // bounds normalize to the classic operators: {0,0} → ε, {1,1} → r,
  // {0,1} → r?, {0,∞} → r*, {1,∞} → r+; ε/∅ children fold away.
  static RegexPtr Repeat(RegexPtr child, int min, int max);

  // Convenience: the expression a1·a2·...·ak for a word.
  static RegexPtr Literal(const Word& word);

  RegexKind kind() const { return kind_; }

  // Require: kind() == kSymbol.
  int symbol() const { return symbol_; }

  // Require: kind() == kRepeat. repeat_max() is kUnboundedRepeat for r{n,}.
  int repeat_min() const { return repeat_min_; }
  int repeat_max() const { return repeat_max_; }

  // Children of kConcat/kUnion (>= 2) or kStar/kPlus/kOptional/kRepeat
  // (exactly 1).
  const std::vector<RegexPtr>& children() const { return children_; }

  // True if ε is in the denoted language.
  bool IsNullable() const;

  // Number of AST nodes (counted repetition counts as one node, not as
  // its expansion).
  int NumNodes() const;

  // True if some subexpression is a kRepeat node, i.e. the expression
  // carries counted occurrence bounds worth preserving on export.
  bool ContainsRepeat() const;

  // Largest symbol id mentioned, or kNoSymbol for symbol-free expressions.
  int MaxSymbol() const;

  // Rewrites every symbol a to symbol_map[a]. Returns nullptr if the
  // expression mentions a symbol with no mapping (out of range or mapped
  // to kNoSymbol). Used to carry content-model provenance across alphabet
  // changes (schema reduce / Σ↔∆ conversions). A subexpression shared
  // within `regex` (DfaToRegex returns a DAG) is rewritten once and stays
  // shared in the result; an unshared expression is rewritten with no
  // allocation beyond its new nodes.
  static RegexPtr Substitute(const RegexPtr& regex,
                             const std::vector<int>& symbol_map);

  // Renders with `|` for union, juxtaposition for concatenation, postfix
  // * + ?, `%` for ε and `~` for ∅, resolving symbol ids via `alphabet`.
  std::string ToString(const Alphabet& alphabet) const;

  // As above, with each symbol a printed as names[symbol_map[a]]: the
  // text of Substitute(this, symbol_map) under an alphabet with those
  // names, without building that expression (an empty map prints symbol
  // a as names[a]). Charges the budget's state quota one unit per
  // rendered byte and checks its deadline as the text grows: a DAG
  // (DfaToRegex's output) can render to text exponential in its nodes,
  // and each repeated subexpression is charged before its copy is
  // appended, so a tripped quota stops the rendering before it
  // allocates. A null budget is unlimited.
  StatusOr<std::string> ToString(const std::vector<std::string>& names,
                                 const std::vector<int>& symbol_map,
                                 Budget* budget) const;

 private:
  Regex(RegexKind kind, int symbol, std::vector<RegexPtr> children)
      : kind_(kind), symbol_(symbol), children_(std::move(children)) {}

  // Substitute's recursion; `memo` maps each shared node already
  // rewritten to its image.
  static RegexPtr SubstituteNode(
      const RegexPtr& regex, const std::vector<int>& symbol_map,
      std::unordered_map<const Regex*, RegexPtr>& memo);

  RegexKind kind_;
  int symbol_;
  int repeat_min_ = 0;
  int repeat_max_ = 0;
  std::vector<RegexPtr> children_;
};

}  // namespace stap

#endif  // STAP_REGEX_AST_H_
