// Validation with diagnostics.
//
// Plain membership tests live on the schema types (Edtd::Accepts,
// DfaXsd::Accepts); this header adds diagnostic validation of a tree
// that reports *where* it violates an XSD, and the wording of that
// report, which the streaming document path (ValidateDocument, behind
// the CLI, batch validation and serve) shares. It runs the same kernel
// as DfaXsd::Accepts (StreamingValidator, schema/streaming.h) and only
// formats a message once the kernel has found a violation.
#ifndef STAP_SCHEMA_VALIDATE_H_
#define STAP_SCHEMA_VALIDATE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "stap/schema/single_type.h"
#include "stap/schema/streaming.h"
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

// Diagnostics on wide elements stay bounded: a child string lists at most
// this many labels, then the count of the omitted tail.
inline constexpr size_t kMaxFormattedSymbols = 32;

// The message for a violation of `kind` (not kNone or kMalformed) at a
// node labeled `label`, which is the root when `at_root`. `shown` holds
// the labels of its first min(num_children, kMaxFormattedSymbols)
// children. ValidateWithDiagnostics reads them off the tree; the
// streaming document path (io/batch_validate.h) records them per open
// element, so both word every message alike.
std::string ViolationMessage(const DfaXsd& xsd, ViolationKind kind,
                             bool at_root, int label,
                             std::span<const int> shown, size_t num_children);

}  // namespace stap

#endif  // STAP_SCHEMA_VALIDATE_H_
