// Algebraic property tests for the counting DPs.
//
// Counting a regular tree language slice must respect the Boolean
// algebra of the languages themselves:
//   |A ∪ B| + |A ∩ B| = |A| + |B|          (inclusion–exclusion)
//   d ≤ d'  ⇒  count(d) ≤ count(d')        (cumulative in depth)
//   w ≤ w'  ⇒  count(w) ≤ count(w')        (monotone in width)
//   lower ⊆ S ⊆ upper                       (sandwich, per the paper)
// checked on seeded random EDTDs, the paper's lower-bound families, and
// counted-content `family counted` instances. The sandwich checks also
// pin down the two containments `stap measure` relies on:
// |upper ∩ S| = |S| and |lower ∩ S| = |lower|.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "stap/approx/lower.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/count/counter.h"
#include "stap/count/measure.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/tree/enumerate.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

std::vector<CountValue> MustCountEdtd(const Edtd& edtd,
                                      const CountBounds& bounds) {
  StatusOr<std::vector<CountValue>> counts =
      CountEdtdByDepth(edtd, bounds, nullptr);
  EXPECT_TRUE(counts.ok());
  return counts.ok() ? *std::move(counts)
                     : std::vector<CountValue>(bounds.max_depth);
}

TEST(CountPropertyTest, InclusionExclusionAtEveryDepth) {
  CountBounds bounds;
  bounds.max_depth = 4;
  bounds.max_width = 2;

  for (int i = 0; i < 60; ++i) {
    std::mt19937 rng(MixSeed(0x1E0000 + i));
    RandomSchemaParams params;
    params.num_symbols = 2;
    params.num_types = 3;
    params.repeat_percent = (i % 2 == 0) ? 50 : 0;
    const Edtd a = RandomEdtd(&rng, params);
    const Edtd b = RandomEdtd(&rng, params);

    const std::vector<CountValue> count_a = MustCountEdtd(a, bounds);
    const std::vector<CountValue> count_b = MustCountEdtd(b, bounds);
    const std::vector<CountValue> count_union =
        MustCountEdtd(EdtdUnion(a, b), bounds);
    const std::vector<CountValue> count_inter =
        MustCountEdtd(*EdtdIntersection(a, b), bounds);

    for (int d = 0; d < bounds.max_depth; ++d) {
      const CountValue lhs =
          CountValue::Add(count_union[d], count_inter[d]);
      const CountValue rhs = CountValue::Add(count_a[d], count_b[d]);
      ASSERT_EQ(CountValue::Compare(lhs, rhs), 0)
          << "schema pair " << i << " depth " << (d + 1) << ": |A∪B|+|A∩B|="
          << lhs.ToString() << " but |A|+|B|=" << rhs.ToString();
    }
  }
}

TEST(CountPropertyTest, CountsMonotoneInDepthAndWidth) {
  for (int i = 0; i < 40; ++i) {
    std::mt19937 rng(MixSeed(0x303000 + i));
    RandomSchemaParams params;
    params.num_symbols = 3;
    params.num_types = 4;
    params.repeat_percent = 30;
    const Edtd edtd = RandomEdtd(&rng, params);

    CountBounds bounds;
    bounds.max_depth = 5;
    bounds.max_width = 3;
    const std::vector<CountValue> counts = MustCountEdtd(edtd, bounds);
    for (int d = 1; d < bounds.max_depth; ++d) {
      EXPECT_LE(CountValue::Compare(counts[d - 1], counts[d]), 0)
          << "schema " << i << ": cumulative count shrank at depth "
          << (d + 1);
    }

    CountBounds narrow = bounds;
    narrow.max_width = 2;
    const std::vector<CountValue> narrow_counts =
        MustCountEdtd(edtd, narrow);
    for (int d = 0; d < bounds.max_depth; ++d) {
      EXPECT_LE(CountValue::Compare(narrow_counts[d], counts[d]), 0)
          << "schema " << i << ": widening the slice lost trees at depth "
          << (d + 1);
    }
  }
}

// The sandwich |L(lower)| ≤ |L(S)| ≤ |L(upper)| at every depth, plus the
// two intersection identities measure's difference arithmetic rests on.
void CheckSandwich(const Edtd& schema, const char* what) {
  MeasureOptions options;
  options.bounds.max_depth = 4;
  options.bounds.max_width = 3;
  StatusOr<MeasureResult> result = MeasureSchema(schema, options, nullptr);
  ASSERT_TRUE(result.ok()) << what;
  for (int d = 0; d < options.bounds.max_depth; ++d) {
    EXPECT_LE(CountValue::Compare(result->schema[d], result->upper[d]), 0)
        << what << ": |L(S)| > |L(upper)| at depth " << (d + 1);
    EXPECT_LE(CountValue::Compare(result->lower[d], result->schema[d]), 0)
        << what << ": |L(lower)| > |L(S)| at depth " << (d + 1);
    // S ⊆ upper: the intersection with the upper approximation is S.
    EXPECT_EQ(CountValue::Compare(result->upper_common[d],
                                  result->schema[d]), 0)
        << what << ": |L(upper) ∩ L(S)| != |L(S)| at depth " << (d + 1);
    // lower ⊆ S: the intersection with the schema is the lower language.
    EXPECT_EQ(CountValue::Compare(result->lower_common[d],
                                  result->lower[d]), 0)
        << what << ": |L(lower) ∩ L(S)| != |L(lower)| at depth " << (d + 1);
    EXPECT_GE(result->UpperPrecision(d), 0.0) << what;
    EXPECT_LE(result->UpperPrecision(d), 1.0 + 1e-9) << what;
    EXPECT_GE(result->LowerRecall(d), 0.0) << what;
    EXPECT_LE(result->LowerRecall(d), 1.0 + 1e-9) << what;
  }
}

TEST(CountPropertyTest, SandwichOnPaperFamilies) {
  CheckSandwich(Theorem32Family(1), "theorem32(1)");
  CheckSandwich(Theorem32Family(2), "theorem32(2)");
  CheckSandwich(Theorem32Family(3), "theorem32(3)");
  CheckSandwich(Theorem36Family(2).first, "theorem36a(2)");
  CheckSandwich(Theorem36Family(2).second, "theorem36b(2)");
  CheckSandwich(CountedFamily(1, 2), "counted(1,2)");
  CheckSandwich(CountedFamily(2, 4), "counted(2,4)");
}

TEST(CountPropertyTest, SandwichOnRandomEdtds) {
  for (int i = 0; i < 30; ++i) {
    std::mt19937 rng(MixSeed(0x5A5D0000 + i));
    RandomSchemaParams params;
    params.num_symbols = 2;
    params.num_types = 4;
    params.repeat_percent = (i % 2 == 0) ? 40 : 0;
    const Edtd edtd = RandomEdtd(&rng, params);
    CheckSandwich(edtd, ("random " + std::to_string(i)).c_str());
    if (HasFailure()) {
      ADD_FAILURE() << "failing schema " << i << ":\n" << edtd.ToString();
      return;
    }
  }
}

// On a single-type input both approximations are the identity up to
// state renaming, so gained and lost must vanish at every depth.
TEST(CountPropertyTest, ApproximationsExactOnSingleTypeSchemas) {
  for (int i = 0; i < 30; ++i) {
    std::mt19937 rng(MixSeed(0xE1AC7 + i));
    RandomSchemaParams params;
    params.num_symbols = 3;
    params.num_types = 4;
    params.repeat_percent = (i % 3 == 0) ? 50 : 0;
    const Edtd st = RandomStEdtd(&rng, params);

    MeasureOptions options;
    options.bounds.max_depth = 4;
    options.bounds.max_width = 3;
    StatusOr<MeasureResult> result = MeasureSchema(st, options, nullptr);
    ASSERT_TRUE(result.ok()) << "schema " << i;
    EXPECT_TRUE(result->single_type) << "schema " << i;
    for (int d = 0; d < options.bounds.max_depth; ++d) {
      EXPECT_TRUE(result->gained[d].IsZero())
          << "schema " << i << ": upper gained "
          << result->gained[d].ToString() << " trees at depth " << (d + 1);
      EXPECT_TRUE(result->lost[d].IsZero())
          << "schema " << i << ": lower lost "
          << result->lost[d].ToString() << " trees at depth " << (d + 1);
    }
    if (HasFailure()) {
      ADD_FAILURE() << "failing schema " << i << ":\n" << st.ToString();
      return;
    }
  }
}

// Soundness of SubsetIntersectionLower checked against brute force:
// every enumerated tree the lower XSD accepts must be in L(S).
TEST(CountPropertyTest, LowerApproximationIsSoundByEnumeration) {
  TreeBounds tree_bounds;
  tree_bounds.max_depth = 3;
  tree_bounds.max_width = 2;
  tree_bounds.num_symbols = 2;
  const std::vector<Tree> trees = EnumerateTrees(tree_bounds);

  for (int i = 0; i < 60; ++i) {
    std::mt19937 rng(MixSeed(0x10E4 + i));
    RandomSchemaParams params;
    params.num_symbols = 2;
    params.num_types = 4;
    params.repeat_percent = (i % 2 == 0) ? 40 : 0;
    const Edtd edtd = ReduceEdtd(RandomEdtd(&rng, params));
    StatusOr<DfaXsd> lower = SubsetIntersectionLower(edtd, nullptr);
    ASSERT_TRUE(lower.ok()) << "schema " << i;
    for (const Tree& tree : trees) {
      if (!lower->Accepts(tree)) continue;
      ASSERT_TRUE(edtd.Accepts(tree))
          << "schema " << i << ": lower accepts a tree outside L(S): "
          << tree.ToString(edtd.sigma) << "\n" << edtd.ToString();
    }
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
