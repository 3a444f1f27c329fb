// The per-state reference for Construction 3.1's content rules.
//
// The library (approx/upper.h) runs a content rule once per distinct set
// of member content images and shares the result among the merged states
// with that set. This is the loop it replaced: reduce the input,
// determinize its type automaton, and run the rule once per reachable
// non-empty subset on every type the subset merges. Output must agree
// byte for byte (XsdStructurallyEqual), which
// tests/subset_construction_differential_test.cc checks;
// tests/budget_metrics_test.cc checks that the library never charges the
// budget more.
#ifndef STAP_TESTS_ORACLES_SUBSET_CONSTRUCTION_H_
#define STAP_TESTS_ORACLES_SUBSET_CONSTRUCTION_H_

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

// MinimalUpperApproximation with the union rule run once per subset.
StatusOr<DfaXsd> PerSubsetUpperApproximation(const Edtd& edtd,
                                             Budget* budget = nullptr);

// SubsetIntersectionLower with the intersection rule run once per subset.
StatusOr<DfaXsd> PerSubsetIntersectionLower(const Edtd& edtd,
                                            Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_SUBSET_CONSTRUCTION_H_
