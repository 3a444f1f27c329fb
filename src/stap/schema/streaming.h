// Streaming (SAX-style) one-pass validation against a DFA-based XSD —
// libstap's one DfaXsd validation kernel.
//
// The EDC constraint's operational payoff (Section 1, [21]): a document
// can be validated top-down in a single pass with O(depth) memory and
// O(1) automaton work per event. The validator consumes start/end element
// events and records its first violation as a kind plus the TreePath of
// the node it concerns (no strings are built). After that it stays
// rejected but keeps accepting events, so callers can drain their parser.
//
//   StreamingValidator v(&xsd);
//   v.StartElement(book); v.StartElement(title); v.EndElement();
//   v.EndElement();
//   bool ok = v.EndDocument();
//
// ValidateDocument (io/batch_validate.h) feeds it XML tokens straight
// from a document's bytes. Materialized trees go through ReplayTree:
// DfaXsd::Accepts returns its verdict, and ValidateWithDiagnostics
// (schema/validate.h) turns the recorded violation into a message.
#ifndef STAP_SCHEMA_STREAMING_H_
#define STAP_SCHEMA_STREAMING_H_

#include <vector>

#include "stap/schema/single_type.h"
#include "stap/tree/tree.h"

namespace stap {

enum class ViolationKind {
  kNone,
  // The root symbol is out of range or not an allowed start symbol.
  kRootNotStart,
  // The element (root or child) has no XSD-automaton transition from its
  // context; `path` is the element. Out-of-range child symbols land here.
  kUndeclared,
  // The parent's content DFA cannot take this child; `path` is the parent.
  kChildRejected,
  // The content DFA is not final at EndElement; `path` is the element.
  kContentIncomplete,
  // The events do not spell one well-nested element: EndElement with
  // nothing open, or a second root. Tree replay never produces this.
  kMalformed,
};

struct Violation {
  ViolationKind kind = ViolationKind::kNone;
  TreePath path;  // child indices from the root
};

class StreamingValidator {
 public:
  // `xsd` must outlive the validator.
  explicit StreamingValidator(const DfaXsd* xsd);

  // Feeds the opening tag of an element labeled `symbol`. Returns ok().
  bool StartElement(int symbol);

  // Feeds a closing tag. Returns ok().
  bool EndElement();

  // True after the (single) root element closed with no violations.
  bool EndDocument();

  // False once any violation has been seen.
  bool ok() const { return ok_; }

  // The first violation; kind kNone while ok().
  const Violation& violation() const { return violation_; }

  // Number of currently open elements.
  int depth() const { return static_cast<int>(stack_.size()); }

 private:
  struct Frame {
    int xsd_state;      // type of the open element
    int content_state;  // run of its content DFA over the children so far
    int children;       // children started so far
  };

  // Path of the node at stack depth `depth` (1 = root); depth() + 1
  // addresses the child currently being started.
  TreePath PathAt(int depth) const;

  // Latches the rejection; returns false.
  bool Fail(ViolationKind kind, int depth);

  const DfaXsd* xsd_;
  std::vector<Frame> stack_;
  bool ok_ = true;
  bool saw_root_ = false;
  Violation violation_;
};

// Feeds `tree` to `validator` as start/end events with an explicit stack
// (documents can be deeper than the call stack allows), stopping at the
// first violation. Returns validator->EndDocument().
bool ReplayTree(const Tree& tree, StreamingValidator* validator);

}  // namespace stap

#endif  // STAP_SCHEMA_STREAMING_H_
