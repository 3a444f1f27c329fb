// Parallel batch validation: many documents against one compiled schema.
//
// The serving-path counterpart of `stap validate`: given a CompiledSchema
// (loaded from an artifact or compiled through the cache), validate a
// batch of XML documents, fanning the per-document work out over a
// ThreadPool. Reports are indexed by input position and every message is
// a pure function of the document and the schema, so the rendered report
// is byte-identical whatever the job count — `--jobs 1` and `--jobs 8`
// must agree, and the determinism test asserts they do.
#ifndef STAP_IO_BATCH_VALIDATE_H_
#define STAP_IO_BATCH_VALIDATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "stap/base/budget.h"
#include "stap/io/artifact.h"

namespace stap {

struct BatchDocument {
  std::string name;  // display name (usually the file path)
  std::string xml;   // document text
  // Non-empty when the caller could not read the document (missing file,
  // I/O error); the sweep reports it as a per-document ERROR verdict
  // without attempting to parse `xml`.
  std::string read_error;
};

struct DocumentVerdict {
  enum class Kind {
    kValid,    // accepted by the schema
    kInvalid,  // well-formed XML, rejected by the schema
    kError,    // unreadable / malformed / budget exhausted
  };
  Kind kind = Kind::kError;
  std::string message;  // detail for kInvalid / kError, empty for kValid
  // The Status code behind a kError verdict (kResourceExhausted for a
  // tripped budget, kInvalidArgument for a malformed document, ...), so
  // callers like `stap serve` can map errors without string matching.
  StatusCode error_code = StatusCode::kOk;
};

struct BatchResult {
  std::vector<DocumentVerdict> verdicts;  // one per input, in input order
  int num_valid = 0;
  int num_invalid = 0;
  int num_errors = 0;

  bool all_valid() const { return num_invalid == 0 && num_errors == 0; }
};

struct BatchOptions {
  // Total worker count for the sweep. 1 = serial; 0 or negative = one
  // per hardware thread (ThreadPool::DefaultThreads).
  int jobs = 1;
  // Optional shared budget; once its deadline trips, remaining documents
  // report kError instead of validating.
  Budget* budget = nullptr;
};

// Validates one document straight from its bytes: the XML tokenizer's
// events feed the schema's validator (StreamingValidator when the schema
// is single-type, EdtdTypeTracker otherwise), names are looked up in the
// schema's Σ, and no document tree is built, so memory is O(depth).
// Thread-safe: the schema is only read. The tokenizer always reads to
// the end, and the verdict is, in this order: a parse error (kError);
// the budget, charged one state per element, then its deadline
// (kError); a name outside Σ (kInvalid); the schema's verdict. The
// deadline is also checked before the parse. Shared by the batch sweep
// below and the `stap serve` request path.
DocumentVerdict ValidateDocument(const CompiledSchema& schema,
                                 std::string_view xml, Budget* budget);

// Validates every document against `schema`. Thread-safe: the schema is
// only read.
BatchResult BatchValidate(const CompiledSchema& schema,
                          const std::vector<BatchDocument>& documents,
                          const BatchOptions& options);

// Renders one status line per document plus a summary line, in input
// order — deterministic for a given (schema, documents) whatever
// `options.jobs` was.
std::string FormatBatchReport(const std::vector<BatchDocument>& documents,
                              const BatchResult& result);

}  // namespace stap

#endif  // STAP_IO_BATCH_VALIDATE_H_
