#include "stap/approx/inclusion.h"

#include <atomic>
#include <climits>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stap/automata/inclusion.h"
#include "stap/automata/interner.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

// DFA for { w : w contains `symbol` }.
Dfa ContainsSymbol(int symbol, int num_symbols) {
  Dfa dfa(2, num_symbols);
  dfa.SetFinal(1);
  for (int a = 0; a < num_symbols; ++a) {
    dfa.SetTransition(0, a, a == symbol ? 1 : 0);
    dfa.SetTransition(1, a, 1);
  }
  return dfa;
}

// Lemma 3.3's walk over the reachable (type-automaton state of d1, XSD
// state) pairs. The verdict and the witness both read it off.
class PairWalk {
 public:
  explicit PairWalk(const DfaXsd& xsd2) : xsd2_(xsd2) {}

  // Reduces `d1` and aligns it onto xsd2's alphabet by name, checks the
  // root labels, runs the budgeted pair BFS, then sweeps the per-pair
  // content inclusions μ1(d1(τ)) ⊆ f2(q) on `pool`. A failing pair, once
  // found, beats an exhausted budget: the verdict is sound regardless of
  // whatever the other workers left unfinished.
  Status Run(const Edtd& d1, ThreadPool* pool, Budget* budget);

  bool included() const { return failing_root_ < 0 && failing_pair_ < 0; }

  // A tree in L(d1) \ L(xsd2). Requires !included().
  Tree Witness() const;

 private:
  struct Pair {
    int s1;      // type-automaton state of d1
    int q2;      // XSD state
    int parent;  // index of the discovering pair, -1 at the root pair
  };

  const Dfa& Content(int q2) const {
    return widened_.empty() ? xsd2_.content[q2] : widened_[q2];
  }

  const DfaXsd& xsd2_;
  Edtd d1_;                   // reduced, over the merged alphabet
  std::vector<Dfa> widened_;  // xsd2's contents, when d1 adds symbols
  std::vector<Pair> pairs_;   // in BFS order
  int failing_root_ = -1;     // a start type whose label xsd2 rejects
  int failing_pair_ = -1;     // the first failing pair in BFS order
};

Status PairWalk::Run(const Edtd& d1, ThreadPool* pool, Budget* budget) {
  static Counter* const calls = GetCounter("approx.inclusion_calls");
  static Counter* const pairs = GetCounter("approx.inclusion_pairs");
  static Histogram* const latency = GetHistogram("approx.inclusion_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("approx.inclusion");

  // The merged alphabet is xsd2's symbols, then d1's extra symbols in
  // d1's order; symbols unknown to xsd2 make inclusion fail as soon as
  // they are reachable. xsd2's contents are widened once, and only when
  // there are extra symbols (widening is the identity remap).
  d1_ = ReduceEdtd(d1);
  if (d1_.num_types() == 0) return Status();  // empty language
  Alphabet merged = xsd2_.sigma;
  std::vector<int> remap(d1_.sigma.size());
  for (int a = 0; a < d1_.sigma.size(); ++a) {
    remap[a] = merged.Intern(d1_.sigma.Name(a));
  }
  for (int& label : d1_.mu) label = remap[label];
  d1_.sigma = std::move(merged);
  const int num_symbols = d1_.sigma.size();
  const int xsd2_symbols = xsd2_.sigma.size();
  if (num_symbols > xsd2_symbols) {
    std::vector<int> keep(xsd2_symbols);
    std::iota(keep.begin(), keep.end(), 0);
    for (const Dfa& content : xsd2_.content) {
      widened_.push_back(RemapSymbols(content, keep, num_symbols));
    }
  }

  // Root check: every D1 start label must be an allowed XSD start symbol.
  const int xsd2_init = xsd2_.automaton.initial();
  for (int tau : d1_.start_types) {
    if (d1_.mu[tau] >= xsd2_symbols ||
        !StateSetContains(xsd2_.start_symbols, d1_.mu[tau]) ||
        xsd2_.automaton.Next(xsd2_init, d1_.mu[tau]) == kNoState) {
      failing_root_ = tau;
      return Status();
    }
  }

  // Phase 1: BFS over reachable pairs — a cheap graph walk; the
  // content-model checks are deferred so they can run as one parallel
  // sweep below. Expansion is independent of the content verdicts, so
  // collecting first is verdict-equivalent, and each pair keeps the pair
  // that discovered it for the witness's path back to the root.
  TypeAutomaton a1 = BuildTypeAutomaton(d1_);
  ScopedSpan bfs_span("inclusion.pair_bfs");
  std::unordered_set<uint64_t, U64Hash> seen;
  Status charge_status;
  auto visit = [&](int s1, int q2, int parent) {
    if (seen.insert(PackPair(s1, q2)).second) {
      pairs_.push_back(Pair{s1, q2, parent});
      pairs->Increment();
      if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
    }
  };
  visit(TypeAutomaton::kInit, xsd2_init, -1);
  for (int i = 0; i < static_cast<int>(pairs_.size()) && charge_status.ok();
       ++i) {
    const int s1 = pairs_[i].s1;
    const int q2 = pairs_[i].q2;
    // Expand along both automata; when the XSD side has no transition
    // (always so on d1's extra symbols) the content check below fails for
    // this pair (reduced d1 guarantees the symbol occurs), so pruning is
    // sound.
    for (int a = 0; a < xsd2_symbols; ++a) {
      const StateSet& succ1 = a1.nfa.Next(s1, a);
      if (succ1.empty()) continue;
      int q2_next = xsd2_.automaton.Next(q2, a);
      if (q2_next == kNoState) continue;
      for (int s1_next : succ1) visit(s1_next, q2_next, i);
    }
  }
  bfs_span.AddArg("pairs", pairs_.size());
  bfs_span.End();
  STAP_RETURN_IF_ERROR(charge_status);

  // Phase 2: the content sweep. It keeps the minimum failing index, so
  // the first failing pair in BFS order is found whatever the pool: no
  // pair below the final minimum is ever skipped.
  ScopedSpan sweep_span("inclusion.content_sweep");
  sweep_span.AddArg("pairs", pairs_.size());
  std::atomic<int> first_failure{INT_MAX};
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, static_cast<int>(pairs_.size()), [&](int i) {
    if (i > first_failure.load(std::memory_order_relaxed) || !shared.ok()) {
      return;
    }
    if (pairs_[i].s1 == TypeAutomaton::kInit) return;
    const int tau = TypeAutomaton::TypeOfState(pairs_[i].s1);
    Nfa image = HomomorphicImage(d1_.content[tau], d1_.mu, num_symbols);
    StatusOr<bool> included =
        NfaIncludedInDfa(image, Content(pairs_[i].q2), budget);
    if (!included.ok()) {
      shared.Update(included.status());
      return;
    }
    if (*included) return;
    int current = first_failure.load(std::memory_order_relaxed);
    while (i < current && !first_failure.compare_exchange_weak(
                              current, i, std::memory_order_relaxed)) {
    }
  });
  if (first_failure.load() != INT_MAX) {
    failing_pair_ = first_failure.load();
    return Status();
  }
  return shared.ToStatus();
}

Tree PairWalk::Witness() const {
  STAP_CHECK(!included());
  std::vector<Tree> minimal = MinimalTypeTrees(d1_);
  if (failing_root_ >= 0) return minimal[failing_root_];

  // The offending node: d1's content at τ escapes the XSD's content at q.
  // Work over the type alphabet so the witness word carries types.
  const Pair& failing = pairs_[failing_pair_];
  int child_tau = TypeAutomaton::TypeOfState(failing.s1);
  std::optional<Word> bad_children = DfaInclusionCounterexample(
      d1_.content[child_tau],
      InverseHomomorphism(Content(failing.q2), d1_.mu, d1_.num_types()));
  STAP_CHECK(bad_children.has_value());
  Tree subtree(d1_.mu[child_tau]);
  for (int t : *bad_children) subtree.children.push_back(minimal[t]);

  // Wrap it in minimal valid levels up to the root. Walk the parent chain;
  // at each step the current subtree's type is known, and the parent's
  // shortest content word containing it places the subtree.
  for (int p = failing.parent; pairs_[p].s1 != TypeAutomaton::kInit;
       p = pairs_[p].parent) {
    const int parent_tau = TypeAutomaton::TypeOfState(pairs_[p].s1);
    Word level;
    const bool found =
        DfaIntersection(d1_.content[parent_tau],
                        ContainsSymbol(child_tau, d1_.num_types()))
            .ShortestWord(&level);
    STAP_CHECK(found);  // the BFS followed a real edge
    Tree parent_tree(d1_.mu[parent_tau]);
    bool placed = false;
    for (int t : level) {
      if (!placed && t == child_tau) {
        parent_tree.children.push_back(std::move(subtree));
        placed = true;
      } else {
        parent_tree.children.push_back(minimal[t]);
      }
    }
    STAP_CHECK(placed);
    subtree = std::move(parent_tree);
    child_tau = parent_tau;
  }
  return subtree;
}

}  // namespace

StatusOr<bool> EdtdIncludedInXsd(const Edtd& d1, const DfaXsd& xsd2,
                                 ThreadPool* pool, Budget* budget) {
  PairWalk walk(xsd2);
  STAP_RETURN_IF_ERROR(walk.Run(d1, pool, budget));
  return walk.included();
}

bool EdtdIncludedInXsd(const Edtd& d1, const DfaXsd& xsd2, ThreadPool* pool) {
  StatusOr<bool> result = EdtdIncludedInXsd(d1, xsd2, pool, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<std::optional<Tree>> XsdInclusionWitness(const Edtd& d1,
                                                  const DfaXsd& xsd2,
                                                  ThreadPool* pool,
                                                  Budget* budget) {
  PairWalk walk(xsd2);
  STAP_RETURN_IF_ERROR(walk.Run(d1, pool, budget));
  if (walk.included()) return std::optional<Tree>();
  return std::optional<Tree>(walk.Witness());
}

std::vector<Tree> MinimalTypeTrees(const Edtd& edtd) {
  STAP_CHECK(IsReduced(edtd));
  const int n = edtd.num_types();
  std::vector<std::optional<Tree>> witness(n);
  // Content models are restricted to the types that already have a
  // witness: the others are remapped to kNoSymbol.
  std::vector<int> keep(n, kNoSymbol);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int tau = 0; tau < n; ++tau) {
      if (witness[tau].has_value()) continue;
      Word word;
      if (!RemapSymbols(edtd.content[tau], keep, n).ShortestWord(&word)) {
        continue;
      }
      Tree tree(edtd.mu[tau]);
      for (int t : word) tree.children.push_back(*witness[t]);
      witness[tau] = std::move(tree);
      keep[tau] = tau;
      changed = true;
    }
  }
  std::vector<Tree> result;
  result.reserve(n);
  for (int tau = 0; tau < n; ++tau) {
    STAP_CHECK(witness[tau].has_value());  // reduced => productive
    result.push_back(*std::move(witness[tau]));
  }
  return result;
}

StatusOr<bool> IncludedInSingleType(const Edtd& d1, const Edtd& d2_in,
                                    ThreadPool* pool, Budget* budget) {
  Edtd d2 = ReduceEdtd(d2_in);
  STAP_CHECK(IsSingleType(d2));
  return EdtdIncludedInXsd(d1, DfaXsdFromStEdtd(d2), pool, budget);
}

StatusOr<bool> SingleTypeEquivalent(const Edtd& d1, const Edtd& d2,
                                    ThreadPool* pool, Budget* budget) {
  StatusOr<bool> forward = IncludedInSingleType(d1, d2, pool, budget);
  if (!forward.ok() || !*forward) return forward;
  return IncludedInSingleType(d2, d1, pool, budget);
}

}  // namespace stap
