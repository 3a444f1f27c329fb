// The schema printers' one state elimination.
//
// SchemaToText, XsdToText (schema/text_format.h) and ExportXsd
// (schema/xsd_io.h) render content DFAs as regular expressions, and a
// schema's content models repeat up to a renaming of their symbols:
// Construction 3.1's 2^(n+1) merged states on Theorem 3.2's family share
// two contents, each over its own successor types. A ContentRegexMemo
// runs DfaToRegex (regex/from_dfa.h) once per distinct key DFA, keyed by
// DfaStructuralHash plus operator==, and hands every user the cached
// expression over the key's symbols; the user renames them into its own
// (Regex::ToString with a symbol map prints the renamed text without
// building it, Regex::Substitute builds it). A printer then eliminates
// states once per distinct content rather than once per type, and its
// output is byte for byte what one DfaToRegex per type printed.
#ifndef STAP_SCHEMA_CONTENT_REGEX_H_
#define STAP_SCHEMA_CONTENT_REGEX_H_

#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/interner.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/regex/ast.h"

namespace stap {

class ContentRegexMemo {
 public:
  // Every Minimize and DfaToRegex the memo runs charges `budget`; a null
  // budget is unlimited. After an error the memo is not to be used again.
  explicit ContentRegexMemo(Budget* budget) : budget_(budget) {}

  // DfaToRegex of the key, which is `dfa` with the symbols it uses
  // renamed, in ascending order, to 0..k-1; (*symbols)[i] is the symbol
  // of `dfa` that key symbol i stands for. That renaming is monotone, so
  // DfaToRegex visits the key's states and symbols in the same order as
  // those of `dfa`, and the result renamed by *symbols is DfaToRegex(dfa)
  // node for node.
  StatusOr<RegexPtr> Eliminate(const Dfa& dfa, std::vector<int>* symbols);

  // DfaToRegex(Minimize(local)), keyed on `local` itself: users whose
  // local DFAs coincide share one Minimize and one elimination.
  StatusOr<RegexPtr> EliminateMinimized(Dfa local);

  // The DfaToRegex runs so far, one per distinct key.
  int distinct_contents() const { return keys_.size(); }

 private:
  StatusOr<RegexPtr> Lookup(Dfa key, bool minimize);

  Budget* const budget_;
  Interner<Dfa, DfaHash> keys_;
  std::vector<RegexPtr> regexes_;  // key id -> its expression
};

}  // namespace stap

#endif  // STAP_SCHEMA_CONTENT_REGEX_H_
