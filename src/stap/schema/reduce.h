// Schema reduction (paper, Proviso 2.3).
//
// An EDTD is reduced when every type is used by some accepted tree, i.e.
// every type is reachable from a start type and productive (derives at
// least one finite tree). All approximation algorithms assume reduced
// inputs; ReduceEdtd establishes the property in polynomial time without
// changing the language.
//
// EDTDs and DFA-based XSDs reduce by one kernel, ReduceGraph, on the
// graph both share: each node (an EDTD type, an XSD state) has a content
// DFA, and each content symbol leads to a node. ReduceEdtd, IsReduced and
// MinimizeXsd (schema/minimize.h) all run it.
#ifndef STAP_SCHEMA_REDUCE_H_
#define STAP_SCHEMA_REDUCE_H_

#include <vector>

#include "stap/automata/dfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"

namespace stap {

// Node v's content is content[v]; its symbol a leads to node
// successor->Next(v, a), or to no node on kNoState. A null successor
// means symbol a leads to node a, as an EDTD's type symbols do. A null
// content (an XSD's q_init) accepts nothing.
struct ContentGraph {
  std::vector<const Dfa*> content;
  const Dfa* successor = nullptr;

  int Next(int node, int symbol) const {
    return successor == nullptr ? symbol : successor->Next(node, symbol);
  }
};

// A node is productive when its content accepts a word whose symbols all
// lead to productive nodes (the least fixpoint), and useful when it is
// productive and reachable from a productive root over symbols that occur
// in such words.
struct GraphReduction {
  std::vector<bool> useful;  // per node
  // A useful node's content restricted to the symbols that lead to
  // useful nodes, minimized: contents[content_of[v]]. Its transition
  // symbols are exactly those that occur. With a null successor the
  // symbols are renumbered with the nodes: useful node w becomes symbol
  // "number of useful nodes before w". Nodes with equal restricted
  // contents share one entry, minimized once. content_of is kNoState on
  // the other nodes.
  std::vector<int> content_of;
  std::vector<Dfa> contents;
};

// The fixpoint and the reachability walk alone, linear in the graph: no
// content is restricted or minimized.
std::vector<bool> UsefulNodes(const ContentGraph& graph,
                              const std::vector<int>& roots);

// UsefulNodes plus the useful nodes' minimized restricted contents. Each
// Minimize checks the budget's deadline; a null budget is unlimited.
StatusOr<GraphReduction> ReduceGraph(const ContentGraph& graph,
                                     const std::vector<int>& roots,
                                     Budget* budget);

// Returns an equivalent reduced EDTD: useless types removed, type ids
// renumbered densely, content DFAs restricted to surviving types, trimmed,
// and minimized. An EDTD for the empty language comes back with zero types.
Edtd ReduceEdtd(const Edtd& edtd);

// True if every type is reachable and productive, i.e. ReduceEdtd keeps
// every type. Runs UsefulNodes only.
bool IsReduced(const Edtd& edtd);

}  // namespace stap

#endif  // STAP_SCHEMA_REDUCE_H_
