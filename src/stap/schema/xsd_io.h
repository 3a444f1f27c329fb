// W3C XML Schema (XSD) import and export for the supported subset.
//
// The paper abstracts XSDs as single-type EDTDs; this module connects the
// abstraction to actual `.xsd` documents so that approximation results
// can round-trip into tooling. Supported subset:
//
//   <xs:schema>
//     <xs:element name="..." type="T"/>          (global = start symbols)
//     <xs:complexType name="T"> particle </xs:complexType>
//   </xs:schema>
//
//   particle ::= <xs:sequence occurs> particle* </xs:sequence>
//              | <xs:choice occurs> particle* </xs:choice>
//              | <xs:element name="..." type="T" occurs/>
//   occurs   ::= minOccurs="<integer>" maxOccurs="<integer>|unbounded"
//
// Occurrence bounds are arbitrary decimal integers (overflow-checked
// against Regex::kMaxRepeatBound); they import as counted repetition
// r{n,m} and are preserved — not expanded — on export. minOccurs >
// maxOccurs is rejected; maxOccurs="0" drops the particle (its content
// contributes ε), unless an explicit minOccurs > 0 contradicts it.
//
// The `xs:` prefix is not hard-coded: the importer resolves, from the
// root's xmlns declarations, every prefix bound to
// http://www.w3.org/2001/XMLSchema (including the default namespace) and
// matches local names under any of them. A root prefix with no xmlns
// declaration at all is accepted by convention, so bare <schema> and
// <xs:schema> documents without namespace boilerplate keep working.
//
// No attributes-on-content, simple types, groups, any-wildcards, or
// substitution groups. Exported documents always stay within the subset,
// so export→import round-trips.
//
// NOTE: exported content models come from state elimination and need not
// satisfy UPA (Section 5 explains why a best deterministic expression may
// not exist); ExportXsd flags non-one-unambiguous content models with an
// <xs:annotation> comment.
#ifndef STAP_SCHEMA_XSD_IO_H_
#define STAP_SCHEMA_XSD_IO_H_

#include <string>
#include <string_view>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/single_type.h"

namespace stap {

struct XsdExportOptions {
  // Replace content models whose language is not one-unambiguous by their
  // deterministic-RE *upper approximation* (regex/dre_approx.h) — the
  // paper's conclusion composes Section 3's approximations with exactly
  // such a translation to obtain W3C-conformant output. Repaired models
  // are flagged with stap-upa="approximated"; without repair they are
  // flagged stap-upa="unsatisfiable" and emitted as-is.
  bool repair_upa = false;
};

// Renders the schema as a W3C-style XSD document. When the schema carries
// content_source provenance with counted repetition, those models are
// emitted with numeric minOccurs/maxOccurs instead of the expanded
// state-eliminated expression. The other models are state-eliminated
// once per distinct content (ContentRegexMemo, schema/content_regex.h).
// State elimination and every particle built charge `budget`, and the
// deadline is checked once per type; a null budget is unlimited.
StatusOr<std::string> ExportXsd(const DfaXsd& xsd,
                                const XsdExportOptions& options = {},
                                Budget* budget = nullptr);

// Parses the supported XSD subset into an EDTD (one type per global
// element / complexType pairing). The result is single-type whenever the
// source satisfies EDC; it is returned unreduced, with content_source
// provenance for each type. Content-model compilation (counted-repetition
// expansion, determinize, minimize) charges `budget` when non-null and
// fails with kResourceExhausted when a quota trips.
StatusOr<Edtd> ImportXsd(std::string_view xml, Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_SCHEMA_XSD_IO_H_
