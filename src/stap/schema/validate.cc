#include "stap/schema/validate.h"

#include <sstream>

#include "stap/base/check.h"

namespace stap {

namespace {

// Hand-built trees can carry labels outside Σ; name them by id.
std::string SymbolName(const Alphabet& alphabet, int symbol) {
  if (symbol >= 0 && symbol < alphabet.size()) return alphabet.Name(symbol);
  return "#" + std::to_string(symbol);
}

std::string FormatChildString(const Alphabet& alphabet,
                              std::span<const int> shown,
                              size_t num_children) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) os << " ";
    os << SymbolName(alphabet, shown[i]);
  }
  if (num_children > shown.size()) {
    // State the full length explicitly: a bare ellipsis is too easy to
    // overlook, and a truncated witness that reads as complete sends
    // people debugging the wrong child string.
    os << " ... (+" << num_children - shown.size() << " more; "
       << num_children << " symbols total)";
  }
  os << "]";
  return os.str();
}

}  // namespace

std::string ViolationMessage(const DfaXsd& xsd, ViolationKind kind,
                             bool at_root, int label,
                             std::span<const int> shown,
                             size_t num_children) {
  switch (kind) {
    case ViolationKind::kRootNotStart:
      return "root element is not an allowed start symbol";
    case ViolationKind::kUndeclared:
      return at_root ? "root element has no declaration"
                     : "element <" + SymbolName(xsd.sigma, label) +
                           "> is not declared in this context";
    case ViolationKind::kChildRejected:
    case ViolationKind::kContentIncomplete:
      return "child string " +
             FormatChildString(xsd.sigma, shown, num_children) +
             " of element <" + SymbolName(xsd.sigma, label) +
             "> does not match its content model";
    case ViolationKind::kNone:
    case ViolationKind::kMalformed:
      break;
  }
  // Well-nested events never produce these as a node's violation.
  STAP_CHECK(false);
  return "";
}

ValidationResult ValidateWithDiagnostics(const DfaXsd& xsd, const Tree& tree) {
  StreamingValidator validator(&xsd);
  ValidationResult result;
  if (ReplayTree(tree, &validator)) return result;
  result.ok = false;
  result.violation_path = validator.violation().path;
  const Tree& node = tree.At(result.violation_path);
  std::vector<int> shown;
  for (size_t i = 0;
       i < node.children.size() && i < kMaxFormattedSymbols; ++i) {
    shown.push_back(node.children[i].label);
  }
  result.message =
      ViolationMessage(xsd, validator.violation().kind,
                       result.violation_path.empty(), node.label, shown,
                       node.children.size());
  return result;
}

}  // namespace stap
