// The regex kernels the library's counted lowering, state elimination
// and printer replaced, kept as references.
//
// The library lowers a bounded r{n,m} with a non-nullable body by nested
// expansion, eliminates states over per-state arc lists and renders each
// shared node once (regex/glushkov.h, regex/from_dfa.h, regex/ast.h).
// These are the flat expansion, the dense (n+2)² arc matrix and the
// tree-walking stream printer. RegexToDfa must give the same minimal
// DFA (tests/counted_lowering_differential_test.cc), and the printed
// text must agree byte for byte (tests/regex_printer_differential_test.cc).
#ifndef STAP_TESTS_ORACLES_REGEX_KERNELS_H_
#define STAP_TESTS_ORACLES_REGEX_KERNELS_H_

#include <string>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/regex/ast.h"

namespace stap {

// The Glushkov automaton with every counted repetition expanded flat:
// r{n,m} = r^n·(r?)^{m-n} and r{n,} = r^{n-1}·r+, whatever the body. The
// positions are numbered as in GlushkovAutomaton, and the same budget
// charges apply: one state per position, one set per follow edge.
StatusOr<Nfa> FlatGlushkovAutomaton(const Regex& regex, int num_symbols,
                                    Budget* budget = nullptr);

// True if the flat Glushkov automaton of `regex` is deterministic, i.e.
// the expression is one-unambiguous / satisfies UPA. Counted repetition
// is judged through its flat expansion, matching the W3C "UPA after
// expansion" reading: a{0,2} = a? a? is not one-unambiguous.
bool IsOneUnambiguous(const Regex& regex, int num_symbols);

// State elimination over the dense (n+2)² matrix of arc expressions, in
// the order k = 0..n-1, every (i, j) pair scanned per k.
RegexPtr DenseDfaToRegex(const Dfa& dfa);

// Regex::ToString as a tree walk through an ostringstream: a shared node
// is rendered again at every occurrence.
std::string TreeWalkToString(const Regex& regex, const Alphabet& alphabet);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_REGEX_KERNELS_H_
