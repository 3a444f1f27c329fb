#include "stap/schema/streaming.h"

#include <cstdint>

#include "stap/base/check.h"

namespace stap {

StreamingValidator::StreamingValidator(const DfaXsd* xsd) : xsd_(xsd) {
  STAP_CHECK(xsd != nullptr);
  xsd->CheckWellFormed();
}

TreePath StreamingValidator::PathAt(int depth) const {
  // Each open ancestor's counter names the child it is descending into.
  TreePath path;
  for (int i = 0; i + 1 < depth; ++i) path.push_back(stack_[i].children - 1);
  return path;
}

bool StreamingValidator::Fail(ViolationKind kind, int depth) {
  ok_ = false;
  violation_ = Violation{kind, PathAt(depth)};
  return false;
}

bool StreamingValidator::StartElement(int symbol) {
  if (!ok_) return false;
  // Reject-before-negativity matters: a negative symbol promoted into an
  // unsigned comparison would wrap to a huge value and could never be
  // caught below, so test the sign first and compare magnitudes in an
  // unsigned domain that is correct whatever integer type size() returns.
  const bool in_range =
      symbol >= 0 && static_cast<uint64_t>(symbol) <
                         static_cast<uint64_t>(xsd_->sigma.size());
  const int self = depth() + 1;
  if (stack_.empty()) {
    // Root element: one per document, from the start symbols.
    if (saw_root_) return Fail(ViolationKind::kMalformed, self);
    if (!in_range || !StateSetContains(xsd_->start_symbols, symbol)) {
      return Fail(ViolationKind::kRootNotStart, self);
    }
    saw_root_ = true;
  } else {
    // Advance the parent's content run.
    Frame& parent = stack_.back();
    ++parent.children;
    if (!in_range) return Fail(ViolationKind::kUndeclared, self);
    if (parent.content_state != kNoState) {
      parent.content_state =
          xsd_->content[parent.xsd_state].Next(parent.content_state, symbol);
    }
    if (parent.content_state == kNoState) {
      return Fail(ViolationKind::kChildRejected, self - 1);
    }
  }
  int from = stack_.empty() ? xsd_->automaton.initial() : stack_.back().xsd_state;
  int state = xsd_->automaton.Next(from, symbol);
  if (state == kNoState) return Fail(ViolationKind::kUndeclared, self);
  const Dfa& content = xsd_->content[state];
  stack_.push_back(
      Frame{state, content.num_states() > 0 ? content.initial() : kNoState, 0});
  return true;
}

bool StreamingValidator::EndElement() {
  if (!ok_) return false;
  if (stack_.empty()) return Fail(ViolationKind::kMalformed, 0);
  const Frame& frame = stack_.back();
  if (frame.content_state == kNoState ||
      !xsd_->content[frame.xsd_state].IsFinal(frame.content_state)) {
    return Fail(ViolationKind::kContentIncomplete, depth());
  }
  stack_.pop_back();
  return true;
}

bool StreamingValidator::EndDocument() {
  return ok_ && saw_root_ && stack_.empty();
}

bool ReplayTree(const Tree& tree, StreamingValidator* validator) {
  ForEachEvent(
      tree, [validator](int label) { return validator->StartElement(label); },
      [validator] { return validator->EndElement(); });
  return validator->EndDocument();
}

}  // namespace stap
