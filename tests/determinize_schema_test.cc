// Differential tests for schema-guided determinization
// (automata/determinize.h): the guided result must agree with the dense
// oracle on every word the context admits, exactly match it under
// exact-mode contexts, latch budget exhaustion mid-construction, and
// genuinely prune the paper's exponential family under a bounded-letter
// ambient schema. Seeded (see test_seed.h): --seed=N / STAP_SEED=N
// replays any failure.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "oracles/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/budget.h"
#include "stap/base/metrics.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/regex/bkw.h"
#include "stap/regex/dre_approx.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/minimize.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// L(result) restricted to the context must equal L(dense) restricted to
// the context (the contract in determinize.h), and L(result) ⊆ L(dense)
// always. 300 random (NFA, context) pairs, both arbitrary.
TEST(DeterminizeSchemaTest, RestrictedLanguageEquivalence) {
  for (int iter = 0; iter < 300; ++iter) {
    std::mt19937 rng(MixSeed(1000 + iter));
    const int num_symbols = 2 + static_cast<int>(rng() % 3);
    Nfa nfa = RandomNfa(&rng, 2 + rng() % 6, num_symbols);
    Nfa context = RandomNfa(&rng, 1 + rng() % 5, num_symbols);

    Dfa dense = *Determinize(nfa);
    StatusOr<Dfa> guided = DeterminizeUnderSchema(nfa, context);
    ASSERT_TRUE(guided.ok());
    Dfa ctx_dfa = *Determinize(context);

    EXPECT_TRUE(DfaIncludedIn(*guided, dense)) << "iter " << iter;
    EXPECT_TRUE(DfaEquivalent(*DfaProduct(*guided, ctx_dfa, BoolOp::kAnd),
                              *DfaProduct(dense, ctx_dfa, BoolOp::kAnd)))
        << "iter " << iter;
  }
}

// Sampled context-accepted words (all their prefixes are context-live by
// definition) must get identical verdicts from both constructions.
TEST(DeterminizeSchemaTest, LivePrefixWordAgreement) {
  int words_checked = 0;
  for (int iter = 0; iter < 100; ++iter) {
    std::mt19937 rng(MixSeed(2000 + iter));
    const int num_symbols = 2 + static_cast<int>(rng() % 3);
    Nfa nfa = RandomNfa(&rng, 2 + rng() % 6, num_symbols);
    Nfa context = RandomNfa(&rng, 1 + rng() % 5, num_symbols);

    Dfa dense = *Determinize(nfa);
    StatusOr<Dfa> guided = DeterminizeUnderSchema(nfa, context);
    ASSERT_TRUE(guided.ok());
    Dfa ctx_dfa = *Determinize(context);

    for (int w = 0; w < 8; ++w) {
      auto word = SampleWord(ctx_dfa, &rng);
      if (!word.has_value()) break;
      EXPECT_EQ(dense.Accepts(*word), guided->Accepts(*word))
          << "iter " << iter;
      ++words_checked;
    }
  }
  // The sweep must have exercised real words, not empty languages only.
  EXPECT_GT(words_checked, 200);
}

// Exact mode: when L(context) ⊇ L(nfa), the guided result accepts
// exactly L(nfa). The NFA itself is such a context (self-context), and
// so is its union with anything.
TEST(DeterminizeSchemaTest, ExactModeMatchesDense) {
  for (int iter = 0; iter < 100; ++iter) {
    std::mt19937 rng(MixSeed(3000 + iter));
    const int num_symbols = 2 + static_cast<int>(rng() % 3);
    Nfa nfa = RandomNfa(&rng, 2 + rng() % 6, num_symbols);
    Nfa padding = RandomNfa(&rng, 1 + rng() % 4, num_symbols);
    Nfa exact_context = iter % 2 == 0 ? nfa : NfaUnion(nfa, padding);

    Dfa dense = *Determinize(nfa);
    StatusOr<Dfa> guided = DeterminizeUnderSchema(nfa, exact_context);
    ASSERT_TRUE(guided.ok());
    EXPECT_TRUE(DfaEquivalent(dense, *guided)) << "iter " << iter;
  }
}

// The inclusion oracle built on the schema-guided determinizer must
// agree with the antichain engine on random pairs.
TEST(DeterminizeSchemaTest, InclusionOracleAgreesWithAntichain) {
  int included = 0;
  for (int iter = 0; iter < 100; ++iter) {
    std::mt19937 rng(MixSeed(4000 + iter));
    const int num_symbols = 2 + static_cast<int>(rng() % 2);
    Nfa a = RandomNfa(&rng, 2 + rng() % 5, num_symbols);
    Nfa b = RandomNfa(&rng, 2 + rng() % 5, num_symbols);
    // Make inclusions non-vacuously common: half the time b also gets
    // all of a's structure.
    if (iter % 2 == 0) b = NfaUnion(b, a);

    StatusOr<bool> via_schema = NfaIncludedInNfaViaSchemaDeterminize(a, b);
    ASSERT_TRUE(via_schema.ok());
    EXPECT_EQ(*via_schema, *NfaIncludedInNfa(a, b)) << "iter " << iter;
    included += *via_schema ? 1 : 0;
  }
  EXPECT_GT(included, 30);  // both verdicts must actually occur
}

// Random EDTDs through the full upper approximation: the
// union-of-contents context is exact-mode, so with minimize_content the
// schema-guided XSD is *structurally identical* to the dense one
// (canonical minimization erases the pair structure).
TEST(DeterminizeSchemaTest, UpperApproximationStructurallyIdentical) {
  for (int iter = 0; iter < 100; ++iter) {
    std::mt19937 rng(MixSeed(5000 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 3 + static_cast<int>(rng() % 4);
    Edtd edtd = RandomEdtd(&rng, params);

    DfaXsd dense = MinimalUpperApproximation(edtd);
    Nfa context = ContentUnionContext(edtd);
    UpperOptions options;
    options.content_context = &context;
    StatusOr<DfaXsd> guided =
        MinimalUpperApproximation(edtd, nullptr, options);
    ASSERT_TRUE(guided.ok());
    EXPECT_TRUE(XsdStructurallyEqual(dense, *guided)) << "iter " << iter;
  }
}

// MinimizeXsdUnderContext with an exact-mode context is the identity
// relative to plain MinimizeXsd.
TEST(DeterminizeSchemaTest, MinimizeXsdUnderExactContextIsCanonical) {
  for (int iter = 0; iter < 50; ++iter) {
    std::mt19937 rng(MixSeed(6000 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 2);
    params.num_types = 3 + static_cast<int>(rng() % 4);
    Edtd edtd = RandomStEdtd(&rng, params);
    DfaXsd xsd = DfaXsdFromStEdtd(edtd);

    DfaXsd dense = MinimizeXsd(xsd);
    Nfa context = ContentUnionContext(edtd);
    StatusOr<DfaXsd> guided = MinimizeXsdUnderContext(xsd, context);
    ASSERT_TRUE(guided.ok());
    EXPECT_TRUE(XsdStructurallyEqual(dense, *guided)) << "iter " << iter;
  }
}

// BKW language one-unambiguity of the schema-guided determinization and
// the DRE chain approximation's NFA entry point, under self-context (exact
// mode):
// verdicts match the dense path, and the approximation regex still
// contains the NFA's language.
TEST(DeterminizeSchemaTest, RegexEntryPointsUnderSelfContext) {
  for (int iter = 0; iter < 50; ++iter) {
    std::mt19937 rng(MixSeed(7000 + iter));
    const int num_symbols = 2 + static_cast<int>(rng() % 2);
    Nfa nfa = RandomNfa(&rng, 2 + rng() % 4, num_symbols);

    Dfa dense = *Determinize(nfa);
    StatusOr<bool> guided_verdict =
        IsOneUnambiguousLanguage(*Determinize(nfa, nullptr, &nfa));
    ASSERT_TRUE(guided_verdict.ok());
    EXPECT_EQ(*guided_verdict, *IsOneUnambiguousLanguage(dense))
        << "iter " << iter;

    StatusOr<RegexPtr> approx = ApproximateDreUnderSchema(nfa, &nfa);
    ASSERT_TRUE(approx.ok());
    Dfa approx_dfa = *RegexToDfa(**approx, num_symbols);
    EXPECT_TRUE(*NfaIncludedInDfa(nfa, approx_dfa)) << "iter " << iter;
  }
}

// Budget exhaustion must latch mid-construction: the guided run on an
// exponential instance stops with kResourceExhausted, the budget stays
// latched for later charges, and a second run fails immediately.
TEST(DeterminizeSchemaTest, BudgetExhaustionLatchesMidConstruction) {
  TypeAutomaton ta = BuildTypeAutomaton(Theorem32Family(16));
  // Universal context (= Σ*): guided degenerates to dense, so the 2^16
  // subsets are all live and the quota trips mid-construction.
  Nfa universal(1, ta.nfa.num_symbols());
  universal.AddInitial(0);
  universal.SetFinal(0);
  for (int a = 0; a < ta.nfa.num_symbols(); ++a) {
    universal.AddTransition(0, a, 0);
  }

  Budget budget;
  budget.set_max_states(500);
  StatusOr<Dfa> result = DeterminizeUnderSchema(ta.nfa, universal, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // Latched: every further charge and every further run fails.
  EXPECT_EQ(budget.ChargeStates().code(), StatusCode::kResourceExhausted);
  StatusOr<Dfa> again = DeterminizeUnderSchema(ta.nfa, universal, &budget);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
}

// The motivating pruning case: the Theorem 3.2 type automaton explodes
// to 2^n dense subsets, but under a bounded-letter ambient schema only
// O(n·k) pairs are live. Checks the per-call stats, the registry
// counters, and the ≥2x acceptance bar at modest n.
TEST(DeterminizeSchemaTest, BoundedContextPrunesTheorem32) {
  const int n = 12;
  TypeAutomaton ta = BuildTypeAutomaton(Theorem32Family(n));
  Nfa context = BoundedLetterContext(/*symbol=*/1, /*max_count=*/3,
                                     ta.nfa.num_symbols());

  Counter* const pruned_counter =
      GetCounter("determinize.schema_pruned_states");
  Counter* const created_counter = GetCounter("determinize.states_created");

  const int64_t created_before_dense = created_counter->value();
  Dfa dense = *Determinize(ta.nfa);
  const int64_t dense_created = created_counter->value() -
                                created_before_dense;

  const int64_t pruned_before = pruned_counter->value();
  const int64_t created_before = created_counter->value();
  SchemaDeterminizeStats stats;
  StatusOr<Dfa> guided = DeterminizeUnderSchema(
      ta.nfa, context, nullptr, nullptr, nullptr, &stats);
  ASSERT_TRUE(guided.ok());
  const int64_t guided_created = created_counter->value() - created_before;

  EXPECT_EQ(stats.pair_states, guided->num_states());
  EXPECT_GT(stats.pruned_states, 0);
  EXPECT_GT(stats.pruned_transitions, 0);
  EXPECT_GT(stats.max_subset_size, 0);
  EXPECT_EQ(pruned_counter->value() - pruned_before, stats.pruned_states);
  // The acceptance bar: at least 2x fewer DFA states created, by the
  // same metrics counter the bench reports. (At n=12 the dense path
  // creates >4096 states; the guided one stays polynomial.)
  EXPECT_GE(dense_created, 2 * guided_created)
      << "dense=" << dense_created << " guided=" << guided_created;

  // And the restriction is still correct.
  Dfa ctx_dfa = *Determinize(context);
  EXPECT_TRUE(DfaEquivalent(*DfaProduct(*guided, ctx_dfa, BoolOp::kAnd),
                            *DfaProduct(dense, ctx_dfa, BoolOp::kAnd)));
}

// Empty-context edge case: a context with no initial states (or whose
// language is empty at the root) collapses the whole result to the dead
// sink, which accepts nothing.
TEST(DeterminizeSchemaTest, DeadContextYieldsEmptyLanguage) {
  std::mt19937 rng(MixSeed(8000));
  Nfa nfa = RandomNfa(&rng, 4, 2);
  Nfa dead(1, 2);  // no initial states at all
  StatusOr<Dfa> guided = DeterminizeUnderSchema(nfa, dead);
  ASSERT_TRUE(guided.ok());
  EXPECT_TRUE(DfaEquivalent(*guided, Dfa::EmptyLanguage(2)));
}

// Subset out-params: per DFA state the NFA half and context half, both
// empty exactly for the sink.
TEST(DeterminizeSchemaTest, SubsetOutParamsDecomposePairs) {
  std::mt19937 rng(MixSeed(8100));
  for (int iter = 0; iter < 25; ++iter) {
    Nfa nfa = RandomNfa(&rng, 2 + rng() % 5, 2);
    Nfa context = RandomNfa(&rng, 1 + rng() % 4, 2);
    std::vector<StateSet> subsets;
    std::vector<StateSet> context_subsets;
    StatusOr<Dfa> guided = DeterminizeUnderSchema(
        nfa, context, nullptr, &subsets, &context_subsets);
    ASSERT_TRUE(guided.ok());
    ASSERT_EQ(static_cast<int>(subsets.size()), guided->num_states());
    ASSERT_EQ(static_cast<int>(context_subsets.size()), guided->num_states());
    for (int s = 0; s < guided->num_states(); ++s) {
      EXPECT_EQ(subsets[s].empty(), context_subsets[s].empty())
          << "state " << s << ": the sink is the only state with an "
          << "empty half, and it has both empty";
      if (subsets[s].empty()) {
        EXPECT_FALSE(guided->IsFinal(s));
      }
    }
  }
}

// A budget shared by concurrent guided determinizations must stay
// race-free (TSan matrix) and deliver either success or a latched
// kResourceExhausted in every thread.
TEST(DeterminizeSchemaTest, ConcurrentSharedBudget) {
  TypeAutomaton ta = BuildTypeAutomaton(Theorem32Family(12));
  Nfa context = BoundedLetterContext(1, 4, ta.nfa.num_symbols());
  Budget budget;
  budget.set_max_states(2000);

  constexpr int kThreads = 8;
  std::vector<StatusCode> codes(kThreads, StatusCode::kOk);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        StatusOr<Dfa> result =
            DeterminizeUnderSchema(ta.nfa, context, &budget);
        codes[t] = result.ok() ? StatusCode::kOk : result.status().code();
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(codes[t] == StatusCode::kOk ||
                codes[t] == StatusCode::kResourceExhausted)
        << "thread " << t;
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
