// Type assignments (typings) of documents.
//
// A tree satisfies an EDTD when *some* typing exists (Definition 2.2);
// this module materializes one typing and counts them. Single-type
// schemas (where the ancestor string determines the type — the essence of
// EDC) always have 0 or 1; general EDTDs can be ambiguous. Both entry
// points walk the document with explicit stacks, so depth is bounded only
// by memory.
#ifndef STAP_SCHEMA_TYPING_H_
#define STAP_SCHEMA_TYPING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "stap/schema/edtd.h"

namespace stap {

// A typing maps each node (in document order: pre-order, children left
// to right) to a type id.
struct Typing {
  std::vector<TreePath> paths;
  std::vector<int> types;  // parallel to paths

  std::string ToString(const Edtd& schema, const Tree& tree) const;
};

// Some typing of `tree` under an arbitrary EDTD, or nullopt. One
// bottom-up pass computes every node's typing counts (see CountTypings),
// then one top-down pass chooses the types from them.
std::optional<Typing> AssignTypesEdtd(const Edtd& edtd, const Tree& tree);

// The number of distinct typings of `tree` under `edtd` (its *typing
// ambiguity*); single-type schemas always report 0 or 1. Saturates at
// `cap`.
int64_t CountTypings(const Edtd& edtd, const Tree& tree,
                     int64_t cap = int64_t{1} << 40);

}  // namespace stap

#endif  // STAP_SCHEMA_TYPING_H_
