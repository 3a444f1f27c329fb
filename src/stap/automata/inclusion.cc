#include "stap/automata/inclusion.h"

#include "stap/automata/antichain.h"
#include "stap/base/check.h"

namespace stap {

// The unbudgeted entry points below pass a null budget, which never
// exhausts, so their results are always OK.
bool DfaIncludedIn(const Dfa& a, const Dfa& b) {
  return *AntichainIncluded(a.ToNfa(), b.ToNfa());
}

StatusOr<bool> NfaIncludedInDfa(const Nfa& nfa, const Dfa& dfa,
                                Budget* budget) {
  return AntichainIncluded(nfa, dfa.ToNfa(), budget);
}

bool DfaEquivalent(const Dfa& a, const Dfa& b) {
  return DfaIncludedIn(a, b) && DfaIncludedIn(b, a);
}

std::optional<Word> DfaInclusionCounterexample(const Dfa& a, const Dfa& b) {
  return *AntichainInclusionCounterexample(a.ToNfa(), b.ToNfa());
}

std::optional<Word> NfaDfaInclusionCounterexample(const Nfa& nfa,
                                                  const Dfa& dfa) {
  STAP_CHECK(nfa.num_symbols() == dfa.num_symbols());
  return *AntichainInclusionCounterexample(nfa, dfa.ToNfa());
}

}  // namespace stap
