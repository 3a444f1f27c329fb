#include "stap/regex/from_dfa.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace stap {

namespace {

// Arc labels during state elimination; nullptr denotes the empty set.
using Arc = RegexPtr;

Arc UnionArcs(const Arc& a, const Arc& b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  // Fold ε into r? / r* where it keeps the output tidy.
  if (a->kind() == RegexKind::kEpsilon) {
    if (b->kind() == RegexKind::kEpsilon) return a;
    if (b->kind() == RegexKind::kStar || b->kind() == RegexKind::kOptional) {
      return b;
    }
    if (b->kind() == RegexKind::kPlus) return Regex::Star(b->children()[0]);
    return Regex::Optional(b);
  }
  if (b->kind() == RegexKind::kEpsilon) return UnionArcs(b, a);
  return Regex::Union({a, b});
}

Arc ConcatArcs(const Arc& a, const Arc& b) {
  if (a == nullptr || b == nullptr) return nullptr;
  if (a->kind() == RegexKind::kEpsilon) return b;
  if (b->kind() == RegexKind::kEpsilon) return a;
  return Regex::Concat({a, b});
}

Arc StarArc(const Arc& a) {
  if (a == nullptr || a->kind() == RegexKind::kEpsilon) {
    return Regex::Epsilon();
  }
  if (a->kind() == RegexKind::kStar) return a;
  return Regex::Star(a);
}

}  // namespace

StatusOr<RegexPtr> DfaToRegex(const Dfa& input, Budget* budget) {
  Dfa dfa = input.Trimmed();
  const int n = dfa.num_states();
  if (dfa.IsEmpty()) return Regex::EmptySet();

  // Nodes 0..n-1 are DFA states, node n is a fresh source, node n+1 a
  // fresh sink. out[i] lists the arcs i -> j with their expression for
  // paths i -> j; in[j] lists each i with an arc i -> j, dead ones too.
  // Arcs into eliminated nodes are dropped when their list is next
  // scanned. This is the (n+2)² matrix of the textbook method, stored
  // sparsely: the updates are the same, so the result is too.
  struct OutArc {
    int target;
    Arc expr;
  };
  const int source = n;
  const int sink = n + 1;
  std::vector<std::vector<OutArc>> out(n + 2);
  std::vector<std::vector<int>> in(n + 2);
  // slot[j] is the index of arc i -> j in out[i] while stamp[j] is the
  // current i's stamp.
  std::vector<int> slot(n + 2, 0);
  std::vector<int64_t> stamp(n + 2, -1);
  int64_t next_stamp = 0;
  auto add_arc = [&](int i, int j, Arc expr) {
    out[i].push_back({j, std::move(expr)});
    in[j].push_back(i);
  };

  for (int q = 0; q < n; ++q) {
    const int64_t current = next_stamp++;
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(q, a);
      if (r == kNoState) continue;
      if (stamp[r] == current) {
        Arc& arc = out[q][slot[r]].expr;
        arc = UnionArcs(arc, Regex::Symbol(a));
      } else {
        stamp[r] = current;
        slot[r] = static_cast<int>(out[q].size());
        add_arc(q, r, Regex::Symbol(a));
      }
    }
    if (dfa.IsFinal(q)) add_arc(q, sink, Regex::Epsilon());
  }
  add_arc(source, dfa.initial(), Regex::Epsilon());

  // Eliminate the DFA states one by one: each path i -> k -> j becomes
  // part of the arc i -> j.
  std::vector<bool> alive(n + 2, true);
  std::vector<OutArc> through_k;  // k's arcs to live nodes
  for (int k = 0; k < n; ++k) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    alive[k] = false;
    Arc loop;
    through_k.clear();
    for (OutArc& arc : out[k]) {
      if (arc.target == k) {
        loop = std::move(arc.expr);
      } else if (alive[arc.target]) {
        through_k.push_back(std::move(arc));
      }
    }
    out[k] = {};
    loop = StarArc(loop);
    for (int i : in[k]) {
      if (!alive[i]) continue;
      // Drop i's arcs into eliminated nodes, taking i -> k along, and
      // index the rest by target.
      const int64_t current = next_stamp++;
      Arc into_k;
      std::vector<OutArc>& arcs = out[i];
      size_t kept = 0;
      for (size_t s = 0; s < arcs.size(); ++s) {
        const int target = arcs[s].target;
        if (target == k) {
          into_k = std::move(arcs[s].expr);
        } else if (alive[target]) {
          stamp[target] = current;
          slot[target] = static_cast<int>(kept);
          if (kept != s) arcs[kept] = std::move(arcs[s]);
          ++kept;
        }
      }
      arcs.resize(kept);
      const Arc prefix = ConcatArcs(into_k, loop);
      STAP_RETURN_IF_ERROR(Budget::ChargeStates(
          budget, static_cast<int64_t>(through_k.size())));
      for (const OutArc& arc : through_k) {
        Arc through = ConcatArcs(prefix, arc.expr);
        if (stamp[arc.target] == current) {
          Arc& existing = arcs[slot[arc.target]].expr;
          existing = UnionArcs(existing, through);
        } else {
          add_arc(i, arc.target, std::move(through));
        }
      }
    }
    in[k] = {};
  }

  for (const OutArc& arc : out[source]) {
    if (arc.target == sink) return arc.expr;
  }
  return Regex::EmptySet();
}

}  // namespace stap
