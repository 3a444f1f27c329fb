#include "stap/schema/typing.h"

#include <sstream>
#include <utility>

#include "stap/base/check.h"

namespace stap {

namespace {

// Saturating arithmetic for typing counts.
int64_t SatAdd(int64_t a, int64_t b, int64_t cap) {
  return a > cap - b ? cap : a + b;
}

int64_t SatMul(int64_t a, int64_t b, int64_t cap) {
  if (a == 0 || b == 0) return 0;
  if (a > cap / b) return cap;
  return a * b;
}

// Typing counts of every node of a tree, indexed by pre-order number (the
// root is 0): counts[v][tau] = number of typings of node v's subtree that
// give v type tau (0 when µ(tau) mismatches or no typing exists).
struct TreeCounts {
  std::vector<std::vector<int64_t>> counts;
  std::vector<int> subtree_size;

  // Pre-order ids of node `id`'s children: child 0 is id + 1, and child
  // i + 1 follows child i's subtree.
  void ChildIds(int id, std::vector<int>* out) const {
    out->clear();
    for (int child = id + 1; child < id + subtree_size[id];
         child += subtree_size[child]) {
      out->push_back(child);
    }
  }
};

// Counts for a node labelled `label` from its children's: a weighted
// path count through each content DFA, where type t at child position i
// weighs tree.counts[child_ids[i]][t].
void NodeCounts(const Edtd& edtd, int label, const TreeCounts& tree,
                const std::vector<int>& child_ids, int64_t cap,
                std::vector<int64_t>* result) {
  const int n = edtd.num_types();
  result->assign(n, 0);
  for (int tau = 0; tau < n; ++tau) {
    if (edtd.mu[tau] != label) continue;
    const Dfa& dfa = edtd.content[tau];
    if (dfa.num_states() == 0) continue;
    std::vector<int64_t> weight_in_state(dfa.num_states(), 0);
    weight_in_state[dfa.initial()] = 1;
    for (int child_id : child_ids) {
      const std::vector<int64_t>& child = tree.counts[child_id];
      std::vector<int64_t> next(dfa.num_states(), 0);
      for (int s = 0; s < dfa.num_states(); ++s) {
        if (weight_in_state[s] == 0) continue;
        for (int t = 0; t < n; ++t) {
          if (child[t] == 0) continue;
          int r = dfa.Next(s, t);
          if (r == kNoState) continue;
          next[r] = SatAdd(next[r],
                           SatMul(weight_in_state[s], child[t], cap), cap);
        }
      }
      weight_in_state = std::move(next);
    }
    int64_t total = 0;
    for (int s = 0; s < dfa.num_states(); ++s) {
      if (dfa.IsFinal(s)) total = SatAdd(total, weight_in_state[s], cap);
    }
    (*result)[tau] = total;
  }
}

// Bottom-up over an explicit post-order stack, the same shape as
// Edtd::PossibleTypes: documents are bounded only by memory, so recursion
// over the tree is not an option.
TreeCounts ComputeTreeCounts(const Edtd& edtd, const Tree& tree,
                             int64_t cap) {
  struct Frame {
    const Tree* node;
    int id;
    size_t next_child;
  };
  TreeCounts result;
  std::vector<Frame> stack = {Frame{&tree, 0, 0}};
  result.counts.emplace_back();
  result.subtree_size.push_back(1);
  std::vector<int> child_ids;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const std::vector<Tree>& children = frame.node->children;
    if (frame.next_child < children.size()) {
      const int id = static_cast<int>(result.counts.size());
      result.counts.emplace_back();
      result.subtree_size.push_back(1);
      stack.push_back(Frame{&children[frame.next_child++], id, 0});
      continue;
    }
    const int id = frame.id;
    result.ChildIds(id, &child_ids);
    NodeCounts(edtd, frame.node->label, result, child_ids, cap,
               &result.counts[id]);
    stack.pop_back();
    if (!stack.empty()) {
      result.subtree_size[stack.back().id] += result.subtree_size[id];
    }
  }
  return result;
}

// Extracts one typing top-down, assuming `tree_counts` certify that the
// root can take type `root_type`: at each node, walk the content DFA
// keeping only states from which acceptance with the remaining children
// is possible, and give each child the first type that keeps the walk
// viable. Nodes are stored at their pre-order ids, so the typing lists
// them in document order whatever order the stack visits them in.
Typing ExtractTyping(const Edtd& edtd, const Tree& tree,
                     const TreeCounts& tree_counts, int root_type) {
  const int n = edtd.num_types();
  Typing typing;
  typing.paths.resize(tree_counts.counts.size());
  typing.types.resize(tree_counts.counts.size());
  typing.types[0] = root_type;
  std::vector<std::pair<const Tree*, int>> stack = {{&tree, 0}};
  std::vector<int> child_ids;
  std::vector<std::vector<bool>> viable;
  while (!stack.empty()) {
    auto [node, id] = stack.back();
    stack.pop_back();
    tree_counts.ChildIds(id, &child_ids);
    const Dfa& dfa = edtd.content[typing.types[id]];
    const int k = static_cast<int>(child_ids.size());
    // viable[i] = states from which children i..k-1 can be consumed,
    // computed right-to-left.
    viable.assign(k + 1, std::vector<bool>(dfa.num_states(), false));
    for (int s = 0; s < dfa.num_states(); ++s) {
      viable[k][s] = dfa.IsFinal(s);
    }
    for (int i = k - 1; i >= 0; --i) {
      const std::vector<int64_t>& counts = tree_counts.counts[child_ids[i]];
      for (int s = 0; s < dfa.num_states(); ++s) {
        for (int t = 0; t < n && !viable[i][s]; ++t) {
          if (counts[t] == 0) continue;
          int r = dfa.Next(s, t);
          if (r != kNoState && viable[i + 1][r]) viable[i][s] = true;
        }
      }
    }
    int state = dfa.initial();
    STAP_CHECK(viable[0][state]);
    for (int i = 0; i < k; ++i) {
      const int child = child_ids[i];
      const std::vector<int64_t>& counts = tree_counts.counts[child];
      int chosen = -1;
      for (int t = 0; t < n; ++t) {
        if (counts[t] == 0) continue;
        int r = dfa.Next(state, t);
        if (r != kNoState && viable[i + 1][r]) {
          chosen = t;
          state = r;
          break;
        }
      }
      STAP_CHECK(chosen >= 0);
      typing.types[child] = chosen;
      typing.paths[child] = typing.paths[id];
      typing.paths[child].push_back(i);
      stack.emplace_back(&node->children[i], child);
    }
  }
  return typing;
}

}  // namespace

std::string Typing::ToString(const Edtd& schema, const Tree& tree) const {
  std::ostringstream os;
  for (size_t i = 0; i < paths.size(); ++i) {
    os << schema.sigma.Name(tree.At(paths[i]).label) << "@[";
    for (size_t j = 0; j < paths[i].size(); ++j) {
      if (j > 0) os << ".";
      os << paths[i][j];
    }
    os << "] : " << schema.types.Name(types[i]) << "\n";
  }
  return os.str();
}

std::optional<Typing> AssignTypesEdtd(const Edtd& edtd, const Tree& tree) {
  if (tree.label < 0 || tree.label >= edtd.num_symbols()) return std::nullopt;
  TreeCounts counts = ComputeTreeCounts(edtd, tree, int64_t{1} << 40);
  for (int tau : edtd.start_types) {
    if (counts.counts[0][tau] > 0) {
      return ExtractTyping(edtd, tree, counts, tau);
    }
  }
  return std::nullopt;
}

int64_t CountTypings(const Edtd& edtd, const Tree& tree, int64_t cap) {
  if (tree.label < 0 || tree.label >= edtd.num_symbols()) return 0;
  TreeCounts counts = ComputeTreeCounts(edtd, tree, cap);
  int64_t total = 0;
  for (int tau : edtd.start_types) {
    total = SatAdd(total, counts.counts[0][tau], cap);
  }
  return total;
}

}  // namespace stap
