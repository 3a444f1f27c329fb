// The stEDTD round-trip reference for XSD minimization and printing.
//
// The library minimizes and prints a DfaXsd natively (schema/minimize.h,
// schema/text_format.h): it reduces the XSD automaton itself and lifts
// one content model at a time to the few types its state reaches. These
// are the routes it replaced, which go through the stEDTD view with
// every content DFA dense over all N types. Output must agree byte for
// byte; tests/xsd_minimize_differential_test.cc checks that.
#ifndef STAP_TESTS_ORACLES_XSD_MINIMIZE_H_
#define STAP_TESTS_ORACLES_XSD_MINIMIZE_H_

#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

// Prop. 2.9's DfaXsd → stEDTD translation by inverse homomorphism: each
// content DFA is lifted over all N types, then minimized.
Edtd StEdtdFromDfaXsdViaStEdtd(const DfaXsd& xsd);

// ReduceEdtd of the stEDTD view, back through DfaXsdFromStEdtd, with
// transitions on symbols outside a state's content dropped; then the
// Moore quotient with the initial partition keyed on Dfa::ToString(),
// and a BFS renumbering. Its tables are string-keyed maps, sharing no
// code with the library's interner.
DfaXsd MinimizeXsdViaStEdtd(const DfaXsd& xsd);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_XSD_MINIMIZE_H_
