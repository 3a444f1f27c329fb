#include "stap/treeauto/exact.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/treeauto/bta.h"
#include "stap/treeauto/encoding.h"

namespace stap {

namespace {

// Searches bottom-up for a binary tree accepted by `bta1` and rejected by
// `det2` (the determinization of the second automaton). Each discovered
// product state remembers a witness tree.
std::optional<Tree> ProductCounterexample(const Bta& bta1, const DetBta& det2,
                                          int num_binary_symbols) {
  struct Node {
    int q1;
    int s2;
    Tree witness;
  };
  std::unordered_map<uint64_t, int, U64Hash> ids;
  std::vector<Node> nodes;
  std::optional<Tree> counterexample;

  auto intern = [&](int q1, int s2, Tree witness) -> bool {
    auto [it, inserted] = ids.emplace(PackPair(q1, s2), nodes.size());
    if (!inserted) return false;
    if (!counterexample.has_value() && bta1.IsFinal(q1) && !det2.IsFinal(s2)) {
      counterexample = witness;
    }
    nodes.push_back(Node{q1, s2, std::move(witness)});
    return true;
  };

  for (int a = 0; a < num_binary_symbols; ++a) {
    for (int q1 : bta1.LeafStates(a)) {
      intern(q1, det2.LeafState(a), Tree(a));
      if (counterexample.has_value()) return counterexample;
    }
  }

  bool changed = true;
  while (changed && !counterexample.has_value()) {
    changed = false;
    const size_t known = nodes.size();
    for (size_t i = 0; i < known && !counterexample.has_value(); ++i) {
      for (size_t j = 0; j < known && !counterexample.has_value(); ++j) {
        for (int a = 0; a < num_binary_symbols; ++a) {
          const StateSet& targets =
              bta1.InternalStates(a, nodes[i].q1, nodes[j].q1);
          if (targets.empty()) continue;
          int s2 = det2.InternalState(a, nodes[i].s2, nodes[j].s2);
          Tree witness(a, {nodes[i].witness, nodes[j].witness});
          for (int q1 : targets) {
            if (intern(q1, s2, witness)) changed = true;
            if (counterexample.has_value()) break;
          }
          if (counterexample.has_value()) break;
        }
      }
    }
  }
  return counterexample;
}

}  // namespace

std::optional<Tree> EdtdInclusionCounterexample(const Edtd& d1,
                                                const Edtd& d2) {
  STAP_CHECK(d1.sigma == d2.sigma);
  Bta bta1 = BtaFromEdtd(d1);
  DetBta det2 = *DeterminizeBta(BtaFromEdtd(d2));
  std::optional<Tree> binary =
      ProductCounterexample(bta1, det2, d1.num_symbols() + 1);
  if (!binary.has_value()) return std::nullopt;
  StatusOr<Tree> decoded = DecodeBinary(*binary, d1.num_symbols());
  // The counterexample search may surface a non-canonical variant (a Σ node
  // with an explicit empty child list); both automata treat it exactly like
  // its canonical form, so fall back to it via a round trip when needed.
  if (decoded.ok()) return *decoded;
  // Normalize: the only non-canonical shape is a(#, #) standing for leaf a;
  // rewrite bottom-up.
  struct Normalizer {
    int hash;
    Tree operator()(const Tree& t) const {
      if (t.label == hash) {
        Tree copy = t;
        for (Tree& child : copy.children) child = (*this)(child);
        return copy;
      }
      if (t.children.size() == 2 && t.children[0].IsLeaf() &&
          t.children[0].label == hash && t.children[1].IsLeaf() &&
          t.children[1].label == hash) {
        return Tree(t.label);
      }
      Tree copy = t;
      for (Tree& child : copy.children) child = (*this)(child);
      return copy;
    }
  };
  Tree normalized = Normalizer{HashSymbol(d1.num_symbols())}(*binary);
  StatusOr<Tree> retry = DecodeBinary(normalized, d1.num_symbols());
  STAP_CHECK(retry.ok());
  return *retry;
}

bool EdtdIncludedInExact(const Edtd& d1, const Edtd& d2) {
  return !EdtdInclusionCounterexample(d1, d2).has_value();
}

bool EdtdEquivalentExact(const Edtd& d1, const Edtd& d2) {
  return EdtdIncludedInExact(d1, d2) && EdtdIncludedInExact(d2, d1);
}

}  // namespace stap
