// Validation with diagnostics.
//
// Plain membership tests live on the schema types (Edtd::Accepts,
// DfaXsd::Accepts); this header adds diagnostic validation
// that reports *where* a document violates an XSD, which the CLI, batch
// validation and the examples print. It runs the same kernel as
// DfaXsd::Accepts (StreamingValidator, schema/streaming.h) and only
// formats a message once the kernel has found a violation.
#ifndef STAP_SCHEMA_VALIDATE_H_
#define STAP_SCHEMA_VALIDATE_H_

#include <string>
#include <vector>

#include "stap/schema/single_type.h"
#include "stap/tree/tree.h"

namespace stap {

struct ValidationResult {
  bool ok = true;
  TreePath violation_path;  // meaningful only when !ok
  std::string message;      // human-readable reason
};

// One-pass top-down validation of `tree` against `xsd`, reporting the
// first violation in document (event) order: an undeclared element, or
// the element whose child string fails its content model — found at the
// first child the content DFA cannot take, or at the closing tag when
// the content is incomplete. The message lists the full child string.
ValidationResult ValidateWithDiagnostics(const DfaXsd& xsd, const Tree& tree);

}  // namespace stap

#endif  // STAP_SCHEMA_VALIDATE_H_
