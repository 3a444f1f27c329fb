#include "stap/approx/lower_check.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/base/check.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/treeauto/exact.h"

namespace stap {

Dfa NkAutomaton(int k, int num_symbols) {
  STAP_CHECK(k >= 0);
  STAP_CHECK(num_symbols >= 1);
  // States: one per string of length <= k (trie layout) plus an absorbing
  // overflow state. The trie has (s^(k+1) - 1) / (s - 1) nodes.
  int64_t nodes = 0;
  int64_t layer = 1;
  for (int depth = 0; depth <= k; ++depth) {
    nodes += layer;
    layer *= num_symbols;
  }
  STAP_CHECK(nodes + 1 < (int64_t{1} << 30));  // keep instances sane
  Dfa dfa(static_cast<int>(nodes) + 1, num_symbols);
  const int overflow = static_cast<int>(nodes);
  // Trie numbering: children of node v are v * s + 1 + a.
  for (int v = 0; v < nodes; ++v) {
    for (int a = 0; a < num_symbols; ++a) {
      int64_t child = static_cast<int64_t>(v) * num_symbols + 1 + a;
      dfa.SetTransition(v, a, child < nodes ? static_cast<int>(child)
                                            : overflow);
    }
  }
  for (int a = 0; a < num_symbols; ++a) {
    dfa.SetTransition(overflow, a, overflow);
  }
  return dfa;
}

LowerCheckResult CheckMaximalLowerFinite(const Edtd& candidate_in,
                                         const Edtd& target_in,
                                         const TreeBounds& bounds,
                                         const ClosureOptions& options,
                                         ThreadPool* pool) {
  ScopedSpan span("approx.lower_check");
  auto [candidate_aligned, target_aligned] =
      AlignAlphabets(candidate_in, target_in);
  Edtd candidate = ReduceEdtd(candidate_aligned);
  Edtd target = ReduceEdtd(target_aligned);
  STAP_CHECK(IsSingleType(candidate));

  LowerCheckResult result;
  result.is_lower = EdtdIncludedInExact(candidate, target);
  if (!result.is_lower) return result;

  // Bounded enumerations of both languages. The enumeration itself can be
  // the largest loop on wide bounds, so it samples the deadline too.
  ScopedSpan enum_span("lower_check.enumerate");
  std::vector<Tree> in_candidate;
  std::vector<Tree> extension_pool;
  for (const Tree& tree : EnumerateTrees(bounds)) {
    result.status = Budget::ChargeSets(options.budget);
    if (!result.status.ok()) {
      result.exhaustive = false;
      return result;
    }
    if (candidate.Accepts(tree)) {
      in_candidate.push_back(tree);
    } else if (target.Accepts(tree)) {
      extension_pool.push_back(tree);
    }
  }
  enum_span.AddArg("in_candidate", in_candidate.size());
  enum_span.AddArg("extension_pool", extension_pool.size());
  enum_span.End();

  ClosureOptions exchange_options = options;
  // Abort a closure as soon as it leaves the target language.
  exchange_options.stop_predicate = [&target](const Tree& member) {
    return !target.Accepts(member);
  };

  // The closure fixpoints per extension candidate are independent, so they
  // sweep in parallel. To keep the result bit-identical to the serial
  // early-exit loop (which returns the FIRST saturated extension and only
  // accumulates `exhaustive` over the prefix before it), each index records
  // its outcome and a monotonically decreasing `first_ext` lets workers
  // skip indexes past the earliest saturated one; the fold below then
  // replays the serial order. Skipping i > first_ext is safe because
  // first_ext only decreases, so a skipped index stays past it forever and
  // the fold never reads its outcome.
  enum : uint8_t { kUnknown = 0, kEscaped, kNotSaturated, kSaturated };
  const int n = static_cast<int>(extension_pool.size());
  ScopedSpan sweep_span("lower_check.extension_sweep");
  sweep_span.AddArg("extensions", n);
  std::vector<uint8_t> outcome(n, kUnknown);
  std::atomic<int> first_ext{n};
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, n, [&](int i) {
    if (i > first_ext.load(std::memory_order_relaxed)) return;
    std::vector<Tree> seeds = in_candidate;
    seeds.push_back(extension_pool[i]);
    ClosureResult closure = CloseUnderExchange(seeds, exchange_options);
    shared.Update(closure.status);
    if (closure.stop_match.has_value()) {
      outcome[i] = kEscaped;
    } else if (closure.saturated) {
      outcome[i] = kSaturated;
      int cur = first_ext.load(std::memory_order_relaxed);
      while (i < cur &&
             !first_ext.compare_exchange_weak(cur, i,
                                              std::memory_order_relaxed)) {
      }
    } else {
      // Capped or budget-exhausted fixpoints both prove nothing about
      // this extension.
      outcome[i] = kNotSaturated;
    }
  });
  result.status = shared.ToStatus();
  if (!result.status.ok()) result.exhaustive = false;
  for (int i = 0; i < n; ++i) {
    if (outcome[i] == kNotSaturated) result.exhaustive = false;
    if (outcome[i] == kSaturated) {
      result.extension = extension_pool[i];
      return result;
    }
  }
  result.is_maximal = result.exhaustive;
  return result;
}

StatusOr<bool> IsSingleTypeDefinable(const Edtd& edtd, Budget* budget) {
  // A single-type schema defines itself; skip the EXPTIME inclusion
  // below, which blows up on large content models (e.g. expanded
  // counted bounds) even when the answer is trivially yes.
  Edtd reduced = ReduceEdtd(edtd);
  if (IsSingleType(reduced)) return true;
  // Construction 3.1 on this reduction: MinimalUpperApproximation would
  // reduce again.
  StatusOr<SubsetApproximations> approximations =
      SubsetConstruction(reduced, /*upper=*/true, /*lower=*/false, budget);
  if (!approximations.ok()) return approximations.status();
  const std::optional<DfaXsd>& upper = approximations->upper;
  // L(edtd) ⊆ L(upper) always; definability is the converse inclusion.
  // Its stEDTD view holds an N-column row per content state: charged up
  // front, since the allocation precedes any kernel that would charge it.
  int64_t content_states = 0;
  for (int q = 0; q < upper->automaton.num_states(); ++q) {
    if (q == upper->automaton.initial()) continue;
    content_states += upper->content[q].num_states();
  }
  STAP_RETURN_IF_ERROR(
      Budget::ChargeStates(budget, content_states * upper->type_size()));
  StatusOr<Edtd> upper_edtd = StEdtdFromDfaXsd(*upper, budget);
  if (!upper_edtd.ok()) return upper_edtd.status();
  return EdtdIncludedInExact(*upper_edtd, reduced, budget);
}

}  // namespace stap
