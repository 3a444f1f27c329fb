// DFA-based XSDs (paper, Definition 2.8) and the linear-time conversions
// to and from single-type EDTDs (Proposition 2.9).
//
// A DfaXsd is a state-labeled DFA over Σ (state 0 = q_init, no finals)
// plus, for every non-initial state, a content language over Σ, plus the
// allowed root symbols. It admits one-pass top-down validation, which is
// what the EDC constraint buys in XML Schema.
//
// The stEDTD view has one type per non-initial state. LiftContent gives
// one state's content in that view over only the types the state
// reaches, which is what keeps printing linear; StEdtdFromDfaXsd widens
// every minimized lift to all N types, so it is quadratic and reserved
// for callers that need a full Edtd. Both rename symbols with
// RemapSymbols (automata/ops.h). Content provenance (content_source)
// rides along: Construction 3.1 (approx/upper.h) gives a merged state a
// counted source when its members' sources carry bounds, MinimizeXsd
// keeps it, and the printers prefer it to state elimination.
#ifndef STAP_SCHEMA_SINGLE_TYPE_H_
#define STAP_SCHEMA_SINGLE_TYPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/regex/ast.h"
#include "stap/schema/edtd.h"
#include "stap/tree/tree.h"

namespace stap {

struct DfaXsd {
  Alphabet sigma;
  std::vector<int> start_symbols;  // sorted set S_d ⊆ Σ

  // State-labeled DFA over Σ; state 0 is q_init. Finality is unused.
  Dfa automaton{1, 0};
  std::vector<int> state_label;  // kNoSymbol for q_init

  std::vector<Dfa> content;  // per state, over Σ; content[0] is unused

  // Optional per-state content provenance (over Σ), mirroring
  // Edtd::content_source: empty or sized num_states(), entry-wise
  // nullable, and non-null entries denote the same language as the
  // corresponding content DFA. Preserves counted repetition across
  // compile → export round trips.
  std::vector<RegexPtr> content_source;

  // Number of types (non-initial states) — the paper's type-size measure.
  int type_size() const { return automaton.num_states() - 1; }

  int64_t Size() const;

  // One-pass top-down validation (the EDC payoff): replays the tree into
  // a StreamingValidator (schema/streaming.h). CHECKs well-formedness.
  bool Accepts(const Tree& tree) const;

  void CheckWellFormed() const;

  std::string ToString() const;
};

// Prop. 2.9 conversions. DfaXsdFromStEdtd requires IsSingleType(edtd)
// (checked); both translations are linear up to content-DFA cleanup.
// The types of StEdtdFromDfaXsd are the non-initial states in state
// order; each content DFA is LiftContent's, widened to all N types.
DfaXsd DfaXsdFromStEdtd(const Edtd& edtd);
Edtd StEdtdFromDfaXsd(const DfaXsd& xsd);

// As above, checking the budget's deadline once per type: the widened
// contents take O(N²) cells, which on an exponential XSD is the largest
// cost. A null budget is unlimited.
StatusOr<Edtd> StEdtdFromDfaXsd(const DfaXsd& xsd, Budget* budget);

// State q's content lifted from Σ to types, over the at most |Σ| types q
// reaches rather than all N. The stEDTD type of a state is its rank among
// the non-initial states.
struct LiftedContent {
  // Local symbol i stands for type types[i]; ascending, so local order is
  // type order.
  std::vector<int> types;
  // Σ symbol a -> the type of δ(q, a), or kNoSymbol where δ(q, a) is
  // undefined. Substituting it into content_source[q] lifts the
  // provenance the same way.
  std::vector<int> symbol_to_type;
  // content[q] with each symbol renamed to its local type symbol: the
  // type words whose labels spell a word of content[q]. It is not
  // minimized, so states with the same content and the same order of
  // successor types lift to equal DFAs, which is what XsdToText keys its
  // one state elimination per content on. Minimize numbers states by BFS
  // over ascending symbols, and the local numbering keeps type order, so
  // Minimize(dfa) widened to all N types is exactly the minimal DFA over
  // the full type alphabet; DfaToRegex likewise renders the same
  // expression.
  Dfa dfa;
};
LiftedContent LiftContent(const DfaXsd& xsd, int q);

}  // namespace stap

#endif  // STAP_SCHEMA_SINGLE_TYPE_H_
