#include "stap/approx/inclusion.h"

#include <atomic>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stap/approx/upper_boolean.h"
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

StatusOr<bool> EdtdIncludedInXsd(const Edtd& d1_in, const DfaXsd& xsd2,
                                 ThreadPool* pool, Budget* budget) {
  static Counter* const calls = GetCounter("approx.inclusion_calls");
  static Counter* const pairs = GetCounter("approx.inclusion_pairs");
  static Histogram* const latency = GetHistogram("approx.inclusion_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("approx.inclusion");
  // Align alphabets by rebuilding d1 over xsd2's alphabet extended with
  // d1's extra symbols; symbols unknown to xsd2 make inclusion fail as
  // soon as they are reachable.
  Edtd d1 = ReduceEdtd(d1_in);
  if (d1.num_types() == 0) return true;  // empty language

  Alphabet merged = xsd2.sigma;
  std::vector<int> remap(d1.sigma.size());
  for (int a = 0; a < d1.sigma.size(); ++a) {
    remap[a] = merged.Intern(d1.sigma.Name(a));
  }
  const int num_symbols = merged.size();
  const bool extra_symbols = num_symbols > xsd2.sigma.size();
  for (int tau = 0; tau < d1.num_types(); ++tau) d1.mu[tau] = remap[d1.mu[tau]];
  d1.sigma = merged;

  TypeAutomaton a1 = BuildTypeAutomaton(d1);

  // Root check: every D1 start label must be an allowed XSD start symbol.
  const int xsd2_init = xsd2.automaton.initial();
  for (int tau : d1.start_types) {
    if (d1.mu[tau] >= xsd2.sigma.size() ||
        !StateSetContains(xsd2.start_symbols, d1.mu[tau]) ||
        xsd2.automaton.Next(xsd2_init, d1.mu[tau]) == kNoState) {
      return false;
    }
  }

  // Phase 1: BFS over reachable (type-automaton state, XSD state) pairs —
  // a cheap graph walk; the content-model checks are deferred so they can
  // run as one parallel sweep below. Expansion is independent of the
  // content verdicts (a failing pair is still expanded in the serial
  // version), so collecting first is verdict-equivalent.
  ScopedSpan bfs_span("inclusion.pair_bfs");
  std::unordered_set<uint64_t, U64Hash> seen;
  std::vector<std::pair<int, int>> worklist;
  Status charge_status;
  auto visit = [&](int s1, int q2) {
    if (seen.insert(PackPair(s1, q2)).second) {
      worklist.emplace_back(s1, q2);
      pairs->Increment();
      if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
    }
  };
  visit(TypeAutomaton::kInit, xsd2_init);
  for (size_t processed = 0;
       processed < worklist.size() && charge_status.ok(); ++processed) {
    auto [s1, q2] = worklist[processed];
    // Expand along both automata; when the XSD side has no transition the
    // content check below fails for this pair (reduced d1 guarantees the
    // symbol occurs), so pruning is sound.
    for (int a = 0; a < num_symbols; ++a) {
      const StateSet& succ1 = a1.nfa.Next(s1, a);
      if (succ1.empty()) continue;
      int q2_next =
          a < xsd2.sigma.size() ? xsd2.automaton.Next(q2, a) : kNoState;
      if (q2_next == kNoState) continue;
      for (int s1_next : succ1) visit(s1_next, q2_next);
    }
  }

  bfs_span.AddArg("pairs", worklist.size());
  bfs_span.End();
  STAP_RETURN_IF_ERROR(charge_status);

  // Phase 2: content inclusion μ1(d1(τ)) ⊆ f2(q) at every reachable pair,
  // swept in parallel with a cooperative early-out on the first failure
  // or the first exhausted budget.
  ScopedSpan sweep_span("inclusion.content_sweep");
  sweep_span.AddArg("pairs", worklist.size());
  std::atomic<bool> failed{false};
  SharedStatus shared;
  ThreadPool::ParallelFor(
      pool, static_cast<int>(worklist.size()), [&](int i) {
        if (failed.load(std::memory_order_relaxed) || !shared.ok()) return;
        auto [s1, q2] = worklist[i];
        if (s1 == TypeAutomaton::kInit) return;
        int tau = TypeAutomaton::TypeOfState(s1);
        // Content inclusion. With extra symbols the image ranges over the
        // merged alphabet while f2 ranges over xsd2's; expand f2 (the
        // extra symbols then reject, which is the desired semantics).
        Nfa image = HomomorphicImage(d1.content[tau], d1.mu, num_symbols);
        Dfa f2 = xsd2.content[q2];
        if (extra_symbols) {
          Dfa expanded(std::max(f2.num_states(), 1), num_symbols);
          if (f2.num_states() > 0) {
            expanded.SetInitial(f2.initial());
            for (int s = 0; s < f2.num_states(); ++s) {
              if (f2.IsFinal(s)) expanded.SetFinal(s);
              for (int a = 0; a < f2.num_symbols(); ++a) {
                int r = f2.Next(s, a);
                if (r != kNoState) expanded.SetTransition(s, a, r);
              }
            }
          }
          f2 = std::move(expanded);
        }
        StatusOr<bool> included = NfaIncludedInDfa(image, f2, budget);
        if (!included.ok()) {
          shared.Update(included.status());
          return;
        }
        if (!*included) {
          failed.store(true, std::memory_order_relaxed);
        }
      });
  // A definite counterexample beats an exhausted budget: the verdict is
  // sound regardless of whatever the other workers left unfinished.
  if (failed.load()) return false;
  STAP_RETURN_IF_ERROR(shared.ToStatus());
  return true;
}

bool EdtdIncludedInXsd(const Edtd& d1, const DfaXsd& xsd2, ThreadPool* pool) {
  StatusOr<bool> result = EdtdIncludedInXsd(d1, xsd2, pool, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<bool> IncludedInSingleType(const Edtd& d1, const Edtd& d2_in,
                                    ThreadPool* pool, Budget* budget) {
  auto [d1_aligned, d2_aligned] = AlignAlphabets(d1, d2_in);
  Edtd d2 = ReduceEdtd(d2_aligned);
  STAP_CHECK(IsSingleType(d2));
  if (d2.num_types() == 0) return ReduceEdtd(d1_aligned).num_types() == 0;
  return EdtdIncludedInXsd(d1_aligned, DfaXsdFromStEdtd(d2), pool, budget);
}

StatusOr<bool> SingleTypeEquivalent(const Edtd& d1, const Edtd& d2,
                                    ThreadPool* pool, Budget* budget) {
  StatusOr<bool> forward = IncludedInSingleType(d1, d2, pool, budget);
  if (!forward.ok() || !*forward) return forward;
  return IncludedInSingleType(d2, d1, pool, budget);
}

}  // namespace stap
