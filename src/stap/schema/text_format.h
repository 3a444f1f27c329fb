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

// The raw declarations of a schema file, before content compilation —
// shared by the DFA-content (ParseSchema) and NFA-content
// (ParseSchemaNfa) pipelines.
struct SchemaDeclarations {
  Alphabet sigma;
  Alphabet types;
  std::vector<int> mu;
  std::vector<std::string> content_sources;  // regex text per type
  std::vector<int> start_types;              // sorted
};

StatusOr<SchemaDeclarations> ParseSchemaDeclarations(std::string_view input);

// Renders an EDTD back into the textual format; content DFAs are converted
// to regular expressions by state elimination.
std::string SchemaToText(const Edtd& edtd);

}  // namespace stap

#endif  // STAP_SCHEMA_TEXT_FORMAT_H_
