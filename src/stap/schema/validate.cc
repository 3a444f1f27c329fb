#include "stap/schema/validate.h"

#include <algorithm>
#include <sstream>

#include "stap/base/check.h"
#include "stap/schema/streaming.h"

namespace stap {

namespace {

// Diagnostics on wide elements stay bounded: child strings longer than
// this are truncated with an ellipsis and a count of the omitted tail.
constexpr size_t kMaxFormattedSymbols = 32;

// Hand-built trees can carry labels outside Σ; name them by id.
std::string SymbolName(const Alphabet& alphabet, int symbol) {
  if (symbol >= 0 && symbol < alphabet.size()) return alphabet.Name(symbol);
  return "#" + std::to_string(symbol);
}

std::string FormatChildString(const Tree& node, const Alphabet& alphabet) {
  const std::vector<Tree>& children = node.children;
  std::ostringstream os;
  os << "[";
  const size_t shown = std::min(children.size(), kMaxFormattedSymbols);
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) os << " ";
    os << SymbolName(alphabet, children[i].label);
  }
  if (children.size() > shown) {
    // State the full length explicitly: a bare ellipsis is too easy to
    // overlook, and a truncated witness that reads as complete sends
    // people debugging the wrong child string.
    os << " ... (+" << children.size() - shown << " more; "
       << children.size() << " symbols total)";
  }
  os << "]";
  return os.str();
}

}  // namespace

ValidationResult ValidateWithDiagnostics(const DfaXsd& xsd, const Tree& tree) {
  StreamingValidator validator(&xsd);
  ValidationResult result;
  if (ReplayTree(tree, &validator)) return result;
  result.ok = false;
  result.violation_path = validator.violation().path;
  const Tree& node = tree.At(result.violation_path);
  switch (validator.violation().kind) {
    case ViolationKind::kRootNotStart:
      result.message = "root element is not an allowed start symbol";
      break;
    case ViolationKind::kUndeclared:
      result.message = result.violation_path.empty()
                           ? "root element has no declaration"
                           : "element <" + SymbolName(xsd.sigma, node.label) +
                                 "> is not declared in this context";
      break;
    case ViolationKind::kChildRejected:
    case ViolationKind::kContentIncomplete:
      result.message = "child string " + FormatChildString(node, xsd.sigma) +
                       " of element <" + SymbolName(xsd.sigma, node.label) +
                       "> does not match its content model";
      break;
    case ViolationKind::kNone:
    case ViolationKind::kMalformed:
      // A replayed tree is one well-nested element that always closes.
      STAP_CHECK(false);
  }
  return result;
}

}  // namespace stap
