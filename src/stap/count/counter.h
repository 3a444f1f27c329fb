// Depth- and size-bounded tree counting over EDTDs and DFA-based XSDs.
//
// All counters work on the bounded slice
//   L_{d,w} = { t in L : depth(t) <= d, every node has <= w children }
// and report the cumulative count for every depth 1..d. Two DPs share
// the CountValue arithmetic (count/bignum.h):
//
//  * CountXsdByDepth — one-pass top-down validation of a DfaXsd assigns
//    each node a unique state, so per-state subtree counts compose with
//    no double counting.
//  * CountIntersectionByDepth — EDTDs are nondeterministic, so per-type
//    counts would double-count trees assignable to several types. The DP
//    instead counts per (XSD state, *profile*) pair, a profile being the
//    exact set of EDTD types assignable to a subtree. Profiles partition
//    trees, and the sibling-word automaton that computes a node's profile
//    from its children's profiles is the on-the-fly bottom-up
//    determinization of the EDTD's binary (first-child/next-sibling)
//    encoding restricted to one label — its states are tuples of
//    content-DFA state sets, one per type of the label, next to the XSD
//    content state. Worst-case exponential in |∆| (the price of counting
//    a nondeterministic language exactly), so every interned tuple and
//    pair charges the Budget. Counting |L(xsd) ∩ L(edtd)| without a
//    product automaton is what lets `stap measure` report
//    |L(upper) \ L(S)| and |L(S) \ L(lower)| as count differences.
//    CountEdtdByDepth is this DP with the XSD of all trees over Σ.
//
// BuildXsdSizeTables indexes by exact node count instead of depth; the
// tables are what gen/random.h's SampleTreeUniform draws from.
#ifndef STAP_COUNT_COUNTER_H_
#define STAP_COUNT_COUNTER_H_

#include <vector>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/count/bignum.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

struct CountBounds {
  int max_depth = 4;  // a single node has depth 1
  int max_width = 4;  // max children per node
};

// result[d-1] = |{ t in L(xsd) : depth <= d, width <= bounds.max_width }|
// for d = 1..bounds.max_depth. A null budget is unlimited.
StatusOr<std::vector<CountValue>> CountXsdByDepth(const DfaXsd& xsd,
                                                  const CountBounds& bounds,
                                                  Budget* budget);

// Same bounded slice for an arbitrary (not necessarily single-type) EDTD:
// the intersection DP below against the XSD of all trees over Σ. Exact:
// every tree is counted once.
StatusOr<std::vector<CountValue>> CountEdtdByDepth(const Edtd& edtd,
                                                   const CountBounds& bounds,
                                                   Budget* budget);

// Counts |L(xsd) ∩ L(edtd)| on the bounded slice. Require: identical
// alphabets (same names in the same order).
StatusOr<std::vector<CountValue>> CountIntersectionByDepth(
    const DfaXsd& xsd, const Edtd& edtd, const CountBounds& bounds,
    Budget* budget);

// Size-indexed counting tables for exact-weight uniform sampling.
// All entries are exact BigNats (no log-domain fallback): sampling needs
// exact cumulative weights, so callers bound max_size instead.
struct XsdSizeTables {
  int max_size = 0;

  // trees[q][s] = number of subtrees with exactly s nodes whose root sits
  // in automaton state q (1 <= q < num_states, 1 <= s <= max_size).
  std::vector<std::vector<BigNat>> trees;

  // forests[q][cs][r] = number of child forests of total size r that
  // drive content[q] from state cs to acceptance (each child a subtree of
  // the matching child state). forests[q][cs][0] is 1 iff cs is final.
  std::vector<std::vector<std::vector<BigNat>>> forests;

  // totals[s] = number of accepted documents with exactly s nodes.
  std::vector<BigNat> totals;
};

// Builds the size tables for sizes 1..max_size. A null budget is
// unlimited; each size level charges states proportional to the table
// slice it fills.
StatusOr<XsdSizeTables> BuildXsdSizeTables(const DfaXsd& xsd, int max_size,
                                           Budget* budget);

}  // namespace stap

#endif  // STAP_COUNT_COUNTER_H_
