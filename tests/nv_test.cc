// Tests for Section 4.2.2: s-types, c-types, the non-violating set
// nv(D2, D1), and the maximal lower approximation of a union fixing one
// disjunct (Theorem 4.8).
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/closure.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

// Brute-force reference for nv(D2, D1) on bounded instances: t ∈ L(D2) is
// non-violating iff closing {t} with the bounded part of L(D1) stays
// inside L(D1) ∪ L(D2). Exact when L(D1) is finite within the bounds and
// closures saturate.
bool NonViolatingBruteForce(const Tree& t, const Edtd& d1, const Edtd& d2,
                            const std::vector<Tree>& d1_members) {
  std::vector<Tree> seeds = d1_members;
  seeds.push_back(t);
  ClosureOptions options;
  options.max_trees = 4000;
  // Stop as soon as the closure escapes the union.
  options.stop_predicate = [&](const Tree& member) {
    return !d1.Accepts(member) && !d2.Accepts(member);
  };
  ClosureResult closure = CloseUnderExchange(seeds, options);
  if (closure.stop_match.has_value()) return false;
  if (!closure.saturated) ADD_FAILURE() << "closure capped; enlarge limits";
  return true;
}

TEST(NvTest, Theorem43UnionHasStrictNonViolatingSet) {
  auto [d1, d2] = Theorem43Schemas();  // a*b chains vs. rank<=2 a-trees
  DfaXsd nv = NonViolating(d1, d2);
  auto [a1, a2] = AlignAlphabets(d1, d2);
  int a = nv.sigma.Find("a");

  // Proof of Theorem 4.3: adding any deep-branching tree lets exchange
  // escape the union, so nv(D2, D1) must reject *some* D2 trees...
  // L(D1) members are unary a-chains ending in b; L(D2) members are
  // all-a trees, so restrict the enumerations accordingly.
  std::vector<Tree> d1_members;
  for (const Tree& tree : EnumerateTrees({5, 1, 2})) {
    if (a1.Accepts(tree)) d1_members.push_back(tree);
  }
  bool some_rejected = false;
  for (const Tree& tree : EnumerateTrees({4, 2, 1})) {
    if (!a2.Accepts(tree)) continue;
    bool in_nv = nv.Accepts(tree);
    bool reference = NonViolatingBruteForce(tree, a1, a2, d1_members);
    EXPECT_EQ(in_nv, reference) << tree.ToString(nv.sigma);
    if (!in_nv) some_rejected = true;
  }
  EXPECT_TRUE(some_rejected);
  (void)a;
}

TEST(NvTest, LowerUnionIsALowerBoundAndContainsD1) {
  auto [d1, d2] = Theorem43Schemas();
  DfaXsd lower = LowerUnionFixingFirst(d1, d2);
  auto [a1, a2] = AlignAlphabets(d1, d2);
  // Contains D1 entirely.
  EXPECT_TRUE(EdtdIncludedInXsd(a1, lower));
  // Lower bound: member-wise within the union.
  for (const Tree& tree : EnumerateTrees({4, 2, 2})) {
    if (lower.Accepts(tree)) {
      EXPECT_TRUE(a1.Accepts(tree) || a2.Accepts(tree))
          << tree.ToString(lower.sigma);
    }
  }
}

TEST(NvTest, DisjointAlphabetUnionIsFullyNonViolating) {
  // When the two languages cannot interact (no shared ancestor strings),
  // everything in D2 is non-violating and the lower approximation is the
  // full union.
  SchemaBuilder b1;
  b1.AddType("A", "a", "A?");
  b1.AddStart("A");
  SchemaBuilder b2;
  b2.AddType("B", "b", "B?");
  b2.AddStart("B");
  Edtd d1 = b1.Build(), d2 = b2.Build();
  DfaXsd nv = NonViolating(d1, d2);
  Edtd d2_aligned = AlignAlphabets(d2, d1).first;
  EXPECT_TRUE(EdtdIncludedInXsd(d2_aligned, nv));
  EXPECT_TRUE(*IncludedInSingleType(StEdtdFromDfaXsd(nv), d2_aligned));
}

TEST(NvTest, IdenticalSchemasAreFullyNonViolating) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "A*");
  builder.AddType("A", "a", "%");
  builder.AddStart("R");
  Edtd d = builder.Build();
  DfaXsd nv = NonViolating(d, d);
  EXPECT_TRUE(*SingleTypeEquivalent(d, StEdtdFromDfaXsd(nv)));
  DfaXsd lower = LowerUnionFixingFirst(d, d);
  EXPECT_TRUE(*SingleTypeEquivalent(d, StEdtdFromDfaXsd(lower)));
}

TEST(NvTest, AnalysisMarksSAndCTypes) {
  auto [d1, d2] = Theorem43Schemas();
  NvAnalysis analysis = AnalyzeNv(d1, d2);
  bool any_s = false, any_c = false;
  for (const auto& pair : analysis.pairs) {
    any_s |= pair.s_type;
    any_c |= pair.c_type;
  }
  // D1 chains a^k b are never D2-subtrees: s-types must exist. The
  // b-terminated contexts of D1 are never D2-contexts: c-types must
  // exist as well.
  EXPECT_TRUE(any_s);
  EXPECT_TRUE(any_c);
}

TEST(NvTest, EmptyFirstLanguageKeepsAllOfSecond) {
  SchemaBuilder empty;
  empty.AddType("R", "a", "R");
  empty.AddStart("R");
  SchemaBuilder b2;
  b2.AddType("B", "a", "B?");
  b2.AddStart("B");
  Edtd d1 = empty.Build(), d2 = b2.Build();
  DfaXsd nv = NonViolating(d1, d2);
  EXPECT_TRUE(*IncludedInSingleType(d2, StEdtdFromDfaXsd(nv)));
  EXPECT_TRUE(*IncludedInSingleType(StEdtdFromDfaXsd(nv), d2));
}

// Property sweep on random single-type pairs: the computed nv(D2, D1)
// agrees with the brute-force closure semantics on bounded documents, and
// Theorem 4.8's result is a lower bound of the union containing D1.
class NvRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(NvRandomTest, AgreesWithClosureSemantics) {
  std::mt19937 rng(GetParam() * 48611 + 11);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 1;
  Edtd d1 = RandomStEdtd(&rng, params);
  Edtd d2 = RandomStEdtd(&rng, params);
  auto [a1, a2] = AlignAlphabets(d1, d2);

  DfaXsd lower = LowerUnionFixingFirst(a1, a2);
  EXPECT_TRUE(EdtdIncludedInXsd(a1, lower));

  TreeBounds bounds{3, 2, a1.sigma.size()};
  std::vector<Tree> d1_members;
  std::vector<Tree> all = EnumerateTrees(bounds);
  for (const Tree& tree : all) {
    if (a1.Accepts(tree)) d1_members.push_back(tree);
  }
  // Language caution: the brute force is only sound when L(D1) within
  // bounds captures all exchange partners for bounded documents; random
  // schemas may have deeper members, so we assert one-sided soundness:
  // everything the lower approximation accepts stays inside the union.
  for (const Tree& tree : all) {
    if (lower.Accepts(tree)) {
      EXPECT_TRUE(a1.Accepts(tree) || a2.Accepts(tree))
          << tree.ToString(lower.sigma);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NvRandomTest, ::testing::Range(0, 25));

// Two-sided agreement with the closure semantics on random *finite*
// (non-recursive, finite-content) schemas, where the bounded enumeration
// captures both languages completely.
class NvFiniteTest : public ::testing::TestWithParam<int> {};

TEST_P(NvFiniteTest, MatchesBruteForceExactly) {
  std::mt19937 rng(GetParam() * 15131 + 23);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 2;
  Edtd d1 = RandomNonRecursiveStEdtd(&rng, params);
  Edtd d2 = RandomNonRecursiveStEdtd(&rng, params);
  auto [a1, a2] = AlignAlphabets(d1, d2);

  // Depth is bounded by the type count (3-node DAG paths), width by the
  // content breadth: {3, 2, Σ} covers both languages completely.
  TreeBounds bounds{3, 2, a1.sigma.size()};
  std::vector<Tree> all = EnumerateTrees(bounds);
  std::vector<Tree> d1_members;
  std::vector<Tree> d2_members;
  for (const Tree& tree : all) {
    if (a1.Accepts(tree)) d1_members.push_back(tree);
    if (a2.Accepts(tree)) d2_members.push_back(tree);
  }
  if (d1_members.size() > 60 || d2_members.size() > 80) {
    GTEST_SKIP() << "instance too large for the brute-force reference";
  }
  DfaXsd nv = NonViolating(a1, a2);
  for (const Tree& tree : d2_members) {
    bool reference = NonViolatingBruteForce(tree, a1, a2, d1_members);
    EXPECT_EQ(nv.Accepts(tree), reference)
        << tree.ToString(nv.sigma) << "\nd1 members: " << d1_members.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NvFiniteTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace stap
