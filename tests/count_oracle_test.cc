// Brute-force enumeration oracle for the counting DPs.
//
// The counters claim *exact* counts of the depth/width-bounded slice of
// L(D). This test enumerates every tree within tiny bounds, counts
// membership by calling Edtd::Accepts per tree, and requires all three
// implementations — the profile DP (CountEdtdByDepth), the binary-
// encoding DP over the determinized BTA (CountEdtdByDepthViaBinary), and
// for single-type inputs the per-state XSD DP (CountXsdByDepth) plus the
// joint intersection DP — to match the oracle on 500+ seeded random
// EDTDs, counted content models included. Runs in the ASan/UBSan and
// TSan CI matrices; the shared-budget test exercises the counters'
// concurrent charging paths under TSan.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "oracles/count_binary.h"
#include "stap/approx/upper.h"
#include "stap/base/budget.h"
#include "stap/count/counter.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/tree/enumerate.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// Oracle: per-depth cumulative membership counts of the enumerated slice.
std::vector<uint64_t> OracleCounts(const Edtd& edtd,
                                   const std::vector<Tree>& trees,
                                   int max_depth) {
  std::vector<uint64_t> counts(max_depth, 0);
  for (const Tree& tree : trees) {
    if (!edtd.Accepts(tree)) continue;
    for (int d = tree.Depth(); d <= max_depth; ++d) ++counts[d - 1];
  }
  return counts;
}

void ExpectMatchesOracle(const std::vector<uint64_t>& oracle,
                         const std::vector<CountValue>& counts,
                         const char* which) {
  ASSERT_EQ(oracle.size(), counts.size()) << which;
  for (size_t d = 0; d < oracle.size(); ++d) {
    ASSERT_TRUE(counts[d].exact()) << which << " depth " << (d + 1);
    EXPECT_EQ(counts[d].ToString(), std::to_string(oracle[d]))
        << which << " depth " << (d + 1);
  }
}

TEST(CountOracleTest, ProfileAndBinaryDpsMatchEnumerationOn500RandomEdtds) {
  TreeBounds tree_bounds;
  tree_bounds.max_depth = 3;
  tree_bounds.max_width = 2;
  tree_bounds.num_symbols = 2;
  const std::vector<Tree> trees = EnumerateTrees(tree_bounds);

  CountBounds bounds;
  bounds.max_depth = 3;
  bounds.max_width = 2;

  for (int i = 0; i < 500; ++i) {
    std::mt19937 rng(MixSeed(0x0C0DE000 + i));
    RandomSchemaParams params;
    params.num_symbols = 2;
    params.num_types = 3 + i % 2;
    params.content_breadth = 2;
    // Half the schemas carry counted (kRepeat) content models, so the
    // counters see the PR-8 content-model pipeline too.
    params.repeat_percent = (i % 2 == 0) ? 60 : 0;
    const Edtd edtd = RandomEdtd(&rng, params);
    const std::vector<uint64_t> oracle =
        OracleCounts(edtd, trees, bounds.max_depth);

    StatusOr<std::vector<CountValue>> profile =
        CountEdtdByDepth(edtd, bounds, nullptr);
    ASSERT_TRUE(profile.ok()) << "schema " << i << ": " << edtd.ToString();
    ExpectMatchesOracle(oracle, *profile, "profile DP");

    StatusOr<std::vector<CountValue>> binary =
        CountEdtdByDepthViaBinary(edtd, bounds, nullptr);
    ASSERT_TRUE(binary.ok()) << "schema " << i;
    ExpectMatchesOracle(oracle, *binary, "binary-encoding DP");

    if (HasFailure()) {
      ADD_FAILURE() << "failing schema " << i << ":\n" << edtd.ToString();
      return;
    }
  }
}

TEST(CountOracleTest, XsdAndIntersectionDpsMatchEnumerationOnSingleType) {
  TreeBounds tree_bounds;
  tree_bounds.max_depth = 3;
  tree_bounds.max_width = 2;
  tree_bounds.num_symbols = 3;
  const std::vector<Tree> trees = EnumerateTrees(tree_bounds);

  CountBounds bounds;
  bounds.max_depth = 3;
  bounds.max_width = 2;

  for (int i = 0; i < 120; ++i) {
    std::mt19937 rng(MixSeed(0x51D00000 + i));
    RandomSchemaParams params;
    params.num_symbols = 3;
    params.num_types = 4;
    params.content_breadth = 2;
    params.repeat_percent = (i % 3 == 0) ? 60 : 0;
    const Edtd st = RandomStEdtd(&rng, params);
    const DfaXsd xsd = DfaXsdFromStEdtd(st);
    const std::vector<uint64_t> oracle =
        OracleCounts(st, trees, bounds.max_depth);

    StatusOr<std::vector<CountValue>> by_state =
        CountXsdByDepth(xsd, bounds, nullptr);
    ASSERT_TRUE(by_state.ok()) << "schema " << i;
    ExpectMatchesOracle(oracle, *by_state, "XSD DP");

    StatusOr<std::vector<CountValue>> by_profile =
        CountEdtdByDepth(st, bounds, nullptr);
    ASSERT_TRUE(by_profile.ok()) << "schema " << i;
    ExpectMatchesOracle(oracle, *by_profile, "profile DP");

    // |L(xsd) ∩ L(xsd)| = |L(xsd)|: the joint DP agrees with both.
    StatusOr<std::vector<CountValue>> self =
        CountIntersectionByDepth(xsd, st, bounds, nullptr);
    ASSERT_TRUE(self.ok()) << "schema " << i;
    ExpectMatchesOracle(oracle, *self, "intersection DP");

    if (HasFailure()) {
      ADD_FAILURE() << "failing schema " << i << ":\n" << st.ToString();
      return;
    }
  }
}

// A fixed recursive schema whose slice counts are known in closed form:
// root(a) -> (leaf | root)^{0..w}, leaf(b) -> ε. Checked by the oracle at
// small bounds, then by monotone growth at bounds the enumerator cannot
// reach — the exactness argument the DP makes must not depend on the
// language being finite.
TEST(CountOracleTest, RecursiveSchemaMatchesOracleAndKeepsGrowing) {
  SchemaBuilder builder;
  builder.AddType("Root", "a", "(Leaf | Root)*");
  builder.AddType("Leaf", "b", "%");
  builder.AddStart("Root");
  const Edtd edtd = ReduceEdtd(builder.Build());

  TreeBounds tree_bounds;
  tree_bounds.max_depth = 4;
  tree_bounds.max_width = 2;
  tree_bounds.num_symbols = 2;
  const std::vector<Tree> trees = EnumerateTrees(tree_bounds);
  const std::vector<uint64_t> oracle = OracleCounts(edtd, trees, 4);

  CountBounds bounds;
  bounds.max_depth = 4;
  bounds.max_width = 2;
  StatusOr<std::vector<CountValue>> counts =
      CountEdtdByDepth(edtd, bounds, nullptr);
  ASSERT_TRUE(counts.ok());
  ExpectMatchesOracle(oracle, *counts, "profile DP");

  bounds.max_depth = 9;
  bounds.max_width = 3;
  counts = CountEdtdByDepth(edtd, bounds, nullptr);
  ASSERT_TRUE(counts.ok());
  for (int d = 1; d < bounds.max_depth; ++d) {
    EXPECT_LT(CountValue::Compare((*counts)[d - 1], (*counts)[d]), 0)
        << "slice count must strictly grow at depth " << (d + 1);
  }
}

TEST(CountOracleTest, ExhaustedBudgetSurfacesAsResourceExhausted) {
  std::mt19937 rng(MixSeed(0xB4D9E7));
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 5;
  const Edtd edtd = RandomEdtd(&rng, params);

  CountBounds bounds;
  bounds.max_depth = 6;
  bounds.max_width = 4;

  Budget sets_budget;
  sets_budget.set_max_sets(1);
  StatusOr<std::vector<CountValue>> counts =
      CountEdtdByDepth(edtd, bounds, &sets_budget);
  EXPECT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kResourceExhausted);

  Budget states_budget;
  states_budget.set_max_states(1);
  counts = CountEdtdByDepth(edtd, bounds, &states_budget);
  EXPECT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kResourceExhausted);

  Budget binary_budget;
  binary_budget.set_max_states(1);
  counts = CountEdtdByDepthViaBinary(edtd, bounds, &binary_budget);
  EXPECT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kResourceExhausted);

  // The lower approximation `stap measure` counts charges the same quota
  // through Construction 3.1's subset construction.
  Budget lower_budget;
  lower_budget.set_max_states(1);
  StatusOr<DfaXsd> lower = SubsetIntersectionLower(edtd, &lower_budget);
  EXPECT_FALSE(lower.ok());
  EXPECT_EQ(lower.status().code(), StatusCode::kResourceExhausted);
}

// Many threads drive independent counts through one shared Budget — the
// pattern `stap serve` uses for per-request quotas. TSan checks the
// charging paths; the assert checks that a shared budget stays latched
// or clean consistently (every thread sees the same terminal behavior
// for an unlimited budget: success with identical counts).
TEST(CountOracleTest, ConcurrentCountsShareOneBudget) {
  std::mt19937 rng(MixSeed(0xC0C0));
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  const Edtd edtd = RandomEdtd(&rng, params);

  CountBounds bounds;
  bounds.max_depth = 4;
  bounds.max_width = 3;

  Budget budget;
  budget.set_max_states(1 << 22);
  budget.set_max_sets(1 << 22);

  StatusOr<std::vector<CountValue>> baseline =
      CountEdtdByDepth(edtd, bounds, nullptr);
  ASSERT_TRUE(baseline.ok());

  constexpr int kThreads = 4;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StatusOr<std::vector<CountValue>> counts =
          CountEdtdByDepth(edtd, bounds, &budget);
      results[t] = counts.ok() ? counts->back().ToString()
                               : counts.status().ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], baseline->back().ToString()) << "thread " << t;
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
