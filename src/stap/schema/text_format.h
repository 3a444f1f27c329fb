// Textual schema format.
//
// A human-readable notation for EDTDs (and DTDs as the degenerate case),
// used by the examples and tests:
//
//   # comment
//   start Book Article
//   type Book    : book    -> Title Chapter+
//   type Title   : title   -> %
//   type Chapter : chapter -> (Section | %)
//
// Each `type` rule declares a type name, its Σ-label, and a content regex
// over *type names* (syntax of regex/parser.h). `start` lists start types.
// Σ consists of all labels mentioned; ∆ of all type names.
#ifndef STAP_SCHEMA_TEXT_FORMAT_H_
#define STAP_SCHEMA_TEXT_FORMAT_H_

#include <string>
#include <string_view>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

class CompileCache;

// Parses the textual format into an EDTD (not automatically reduced).
// The parsed content regexes are retained in Edtd::content_source, so
// counted repetition (r{n,m}) survives later export.
//
// A non-null `cache` memoizes content-model compilation (Glushkov →
// determinize → minimize), so repeated loads of the same schema — or of
// schemas sharing content models — compile each distinct model once per
// process. A null cache compiles directly. Thread-safe for concurrent
// calls sharing one cache.
//
// Content-model expansion (counted repetition), determinization, and
// minimization charge `budget` and fail with kResourceExhausted when it
// trips; a null budget is unlimited. A non-null budget bypasses the cache
// so one caller's quota never decides another's entry.
StatusOr<Edtd> ParseSchema(std::string_view input,
                           CompileCache* cache = nullptr,
                           Budget* budget = nullptr);

// Renders an EDTD back into the textual format. A content source with
// counted repetition is printed as it is; every other content DFA is
// converted to a regular expression by state elimination, once per
// distinct content up to a monotone renaming of its symbols
// (ContentRegexMemo, schema/content_regex.h), which prints the same bytes
// as one elimination per type.
std::string SchemaToText(const Edtd& edtd);

// The one printer for computed XSDs: MinimizeXsd (schema/minimize.h),
// then the stEDTD view in SchemaToText's format, so every printed result
// is the canonical minimal representation (Def. 2.8). The view is
// rendered one state at a time from LiftContent (schema/single_type.h):
// state q is type LABEL@q, and its content is its counted source when
// it has one, else DfaToRegex of the minimized local lift with its
// symbols printed as type names. ContentRegexMemo keys on the local lift
// before its Minimize, so states whose lifts coincide (Theorem 3.2's
// 2^(n+1) states lift to a handful) share one Minimize and one state
// elimination. The output equals SchemaToText(StEdtdFromDfaXsd(minimized))
// byte for byte, without the N×N content tables. Minimization, state
// elimination and the rendered bytes charge `budget`, so an exponential
// text stops at the quota or the deadline. Printing is traced as the
// `schema.print` span, with args bytes and distinct_contents (the
// DfaToRegex runs).
StatusOr<std::string> XsdToText(const DfaXsd& xsd, Budget* budget);

}  // namespace stap

#endif  // STAP_SCHEMA_TEXT_FORMAT_H_
