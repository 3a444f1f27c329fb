#include "oracles/minimal_upper_check.h"

#include <atomic>
#include <utility>
#include <vector>

#include "oracles/determinize_schema.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/automata/antichain.h"
#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"

namespace stap {

StatusOr<bool> IsMinimalUpperApproximation(const Edtd& candidate_in,
                                           const Edtd& target_in,
                                           ThreadPool* pool, Budget* budget) {
  ScopedSpan span("approx.minimal_upper_check");
  auto [candidate_aligned, target_aligned] =
      AlignAlphabets(candidate_in, target_in);
  Edtd candidate = ReduceEdtd(candidate_aligned);
  Edtd target = ReduceEdtd(target_aligned);
  STAP_CHECK(IsSingleType(candidate));
  const int num_symbols = candidate.num_symbols();

  // Phase 1: the candidate must be an upper approximation at all:
  // L(target) ⊆ L(candidate). Polynomial (Lemma 3.3).
  ScopedSpan phase1_span("muc.upper_inclusion");
  if (target.num_types() == 0) return candidate.num_types() == 0;
  if (candidate.num_types() == 0) return false;
  DfaXsd candidate_xsd = DfaXsdFromStEdtd(candidate);
  StatusOr<bool> upper = EdtdIncludedInXsd(target, candidate_xsd, pool, budget);
  if (!upper.ok()) return upper.status();
  if (!*upper) return false;
  phase1_span.End();

  // Phase 2: L(candidate) ⊆ L(minupper(target)) — per the paper it
  // suffices to check inclusion, since minupper is the least single-type
  // language containing L(target). The pairs (candidate XSD state,
  // subset of target types) are exactly a schema-guided determinization
  // of the target's type automaton under the candidate as context, so
  // this phase is one DeterminizeUnderSchema call under the same budget.
  TypeAutomaton target_types = BuildTypeAutomaton(target);

  // Candidate root labels must all be allowed by minupper, whose start
  // symbols are μ(S_target).
  std::vector<bool> target_root(num_symbols, false);
  for (int tau : target.start_types) target_root[target.mu[tau]] = true;
  for (int a : candidate_xsd.start_symbols) {
    if (!target_root[a]) return false;
  }

  // The kernel materializes only (candidate state, subset) pairs both of
  // whose halves are live; a target move the candidate cannot follow (or
  // vice versa) lands in the shared sink, which the old walk skipped as
  // "caught by the content check".
  ScopedSpan walk_span("muc.pair_walk");
  std::vector<StateSet> pair_subsets;
  std::vector<StateSet> pair_contexts;
  StatusOr<Dfa> joint =
      DeterminizeUnderSchema(target_types.nfa, candidate_xsd.automaton.ToNfa(),
                             budget, &pair_subsets, &pair_contexts);
  if (!joint.ok()) return joint.status();

  // Re-intern the materialized subsets so each distinct subset's content
  // union is built once; keep per live pair the candidate state and the
  // interned subset id. The sink (both halves empty) carries no content
  // obligation, and the initial pair is the ({init}, {q_init}) root
  // marker whose content the root-label check above already covers.
  Interner<StateSet, IntVectorHash> subsets;
  struct PairRef {
    int q;
    int subset_id;
  };
  std::vector<PairRef> worklist;
  for (int s = 0; s < joint->num_states(); ++s) {
    if (s == joint->initial() || pair_subsets[s].empty()) continue;
    // The candidate automaton is deterministic, so every live context
    // half is a singleton {q}.
    STAP_CHECK(pair_contexts[s].size() == 1);
    worklist.push_back(PairRef{
        pair_contexts[s][0], subsets.Intern(std::move(pair_subsets[s])).first});
  }
  walk_span.AddArg("pairs", worklist.size());
  walk_span.AddArg("subsets", subsets.size());
  walk_span.End();

  // Union NFA of a subset's content images. Built once per subset id (all
  // ids occur in the worklist); the antichain inclusion consumes the NFA
  // directly, so the union is never determinized.
  ScopedSpan contents_span("muc.subset_contents");
  std::vector<Nfa> subset_content(subsets.size(), Nfa(0, num_symbols));
  ThreadPool::ParallelFor(pool, subsets.size(), [&](int subset_id) {
    std::vector<int> types;
    for (int state : subsets[subset_id]) {
      if (state == TypeAutomaton::kInit) continue;
      types.push_back(TypeAutomaton::TypeOfState(state));
    }
    subset_content[subset_id] = ContentImageUnion(target, types);
  });
  contents_span.End();

  ScopedSpan sweep_span("muc.content_sweep");
  sweep_span.AddArg("pairs", worklist.size());
  std::atomic<bool> failed{false};
  SharedStatus shared;
  ThreadPool::ParallelFor(
      pool, static_cast<int>(worklist.size()), [&](int i) {
        if (failed.load(std::memory_order_relaxed) || !shared.ok()) return;
        const auto [q, subset_id] = worklist[i];
        // Candidate content must be inside the union of the subset's
        // contents.
        Nfa image = candidate_xsd.content[q].ToNfa();
        StatusOr<bool> included =
            AntichainIncluded(image, subset_content[subset_id], budget);
        if (!included.ok()) {
          shared.Update(included.status());
          return;
        }
        if (!*included) {
          failed.store(true, std::memory_order_relaxed);
        }
      });
  // A definite non-inclusion verdict stands even if another worker
  // exhausted the budget.
  if (failed.load()) return false;
  STAP_RETURN_IF_ERROR(shared.ToStatus());
  return true;
}

}  // namespace stap
