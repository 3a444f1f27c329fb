#include "stap/schema/edtd.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "stap/base/check.h"

namespace stap {

int64_t Edtd::Size() const {
  int64_t total = sigma.size() + num_types() +
                  static_cast<int64_t>(start_types.size());
  for (const Dfa& dfa : content) total += dfa.Size();
  return total;
}

namespace {

// Writes to `result` the types τ with μ(τ) = `label` whose content
// accepts some word w with w_i ∈ child_types[i].
void TypesOfNode(const Edtd& edtd, int label,
                 std::span<const std::vector<int>> child_types,
                 std::vector<int>* result) {
  result->clear();
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    if (edtd.mu[tau] != label) continue;
    const Dfa& dfa = edtd.content[tau];
    if (dfa.num_states() == 0) continue;
    StateSet states = {dfa.initial()};
    for (const std::vector<int>& options : child_types) {
      StateSet next;
      for (int q : states) {
        for (int candidate : options) {
          int r = dfa.Next(q, candidate);
          if (r != kNoState) StateSetInsert(next, r);
        }
      }
      states = std::move(next);
      if (states.empty()) break;
    }
    for (int q : states) {
      if (dfa.IsFinal(q)) {
        result->push_back(tau);
        break;
      }
    }
  }
}

}  // namespace

// Iterative over an explicit post-order stack: documents are bounded only
// by memory, so recursion over the tree is not an option. Each finished
// node leaves its type set on `done`, so a node's children's sets are the
// top children.size() entries when it finishes. `done` grows but never
// shrinks, so its vectors keep their capacity from node to node. Returns
// {} as soon as some node has no type (a node with an untypable child is
// untypable itself).
std::vector<int> Edtd::PossibleTypes(const Tree& subtree) const {
  struct Frame {
    const Tree* node;
    size_t next_child;
  };
  std::vector<Frame> stack = {Frame{&subtree, 0}};
  std::vector<std::vector<int>> done;
  size_t num_done = 0;
  std::vector<int> types;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const std::vector<Tree>& children = frame.node->children;
    if (frame.next_child < children.size()) {
      stack.push_back(Frame{&children[frame.next_child++], 0});
      continue;
    }
    const size_t first = num_done - children.size();
    TypesOfNode(
        *this, frame.node->label,
        std::span<const std::vector<int>>(done).subspan(first, children.size()),
        &types);
    stack.pop_back();
    if (types.empty()) return {};
    if (first == done.size()) done.emplace_back();
    done[first].swap(types);
    num_done = first + 1;
  }
  return std::move(done[0]);
}

bool Edtd::Accepts(const Tree& tree) const {
  if (tree.label < 0 || tree.label >= num_symbols()) return false;
  std::vector<int> root_types = PossibleTypes(tree);
  for (int tau : root_types) {
    if (StateSetContains(start_types, tau)) return true;
  }
  return false;
}

std::vector<int> Edtd::OccurringTypes(int tau) const {
  STAP_CHECK(tau >= 0 && tau < num_types());
  Dfa trimmed = content[tau].Trimmed();
  std::vector<bool> occurs(num_types(), false);
  for (int q = 0; q < trimmed.num_states(); ++q) {
    for (int t = 0; t < num_types(); ++t) {
      if (trimmed.Next(q, t) != kNoState) occurs[t] = true;
    }
  }
  std::vector<int> result;
  for (int t = 0; t < num_types(); ++t) {
    if (occurs[t]) result.push_back(t);
  }
  return result;
}

void Edtd::CheckWellFormed() const {
  STAP_CHECK(static_cast<int>(mu.size()) == types.size());
  STAP_CHECK(static_cast<int>(content.size()) == num_types());
  for (int tau = 0; tau < num_types(); ++tau) {
    STAP_CHECK(mu[tau] >= 0 && mu[tau] < num_symbols());
    STAP_CHECK(content[tau].num_symbols() == num_types());
  }
  for (int tau : start_types) {
    STAP_CHECK(tau >= 0 && tau < num_types());
  }
  STAP_CHECK(content_source.empty() ||
             static_cast<int>(content_source.size()) == num_types());
  for (const RegexPtr& source : content_source) {
    if (source != nullptr) STAP_CHECK(source->MaxSymbol() < num_types());
  }
}

std::string Edtd::ToString() const {
  std::ostringstream os;
  os << "EDTD start={";
  for (size_t i = 0; i < start_types.size(); ++i) {
    if (i > 0) os << ",";
    os << types.Name(start_types[i]);
  }
  os << "}\n";
  for (int tau = 0; tau < num_types(); ++tau) {
    os << "  " << types.Name(tau) << " [" << sigma.Name(mu[tau])
       << "] -> DFA(" << content[tau].num_states() << " states)\n";
  }
  return os.str();
}

}  // namespace stap
