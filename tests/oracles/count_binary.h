// Tree counting through the binary (first-child/next-sibling) encoding.
//
// A second, independent implementation of the EDTD counter: build the
// binary tree automaton of the encoding (treeauto/encoding.h), determinize
// it bottom-up (treeauto/bta.h), and run the counting DP over DetBta
// states. A bottom-up deterministic automaton assigns every encoded tree
// exactly one state, so per-state counts compose with no double counting —
// the same argument the profile DP makes, reached through a different
// construction. It pays the up-front DeterminizeBta cost (worst-case
// exponential, budget-charged), so `stap measure` runs the profile DP and
// only the test suite and bench_measure run this one, as an oracle for
// it; hence it lives in the stap_oracles library, not in libstap.
#ifndef STAP_TESTS_ORACLES_COUNT_BINARY_H_
#define STAP_TESTS_ORACLES_COUNT_BINARY_H_

#include <vector>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/count/bignum.h"
#include "stap/count/counter.h"
#include "stap/schema/edtd.h"

namespace stap {

// Same contract as CountEdtdByDepth (count/counter.h): cumulative counts
// of the bounded slice per depth 1..bounds.max_depth, computed over the
// determinized binary encoding instead of sibling-tuple profiles.
StatusOr<std::vector<CountValue>> CountEdtdByDepthViaBinary(
    const Edtd& edtd, const CountBounds& bounds, Budget* budget);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_COUNT_BINARY_H_
