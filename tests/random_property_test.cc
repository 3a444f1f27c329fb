// Randomized end-to-end properties tying the whole pipeline together:
// generators produce valid schemas, sampling produces members, the
// approximation operators satisfy their lattice laws, and the paper's
// decision procedures agree with each other (Construction 3.1 against
// Theorem 3.5's minimality check, Lemma 3.3 against the EXPTIME
// tree-automaton route).
#include <gtest/gtest.h>

#include <random>

#include "oracles/minimal_upper_check.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/random.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"
#include "stap/treeauto/exact.h"

namespace stap {
namespace {

class PipelineTest : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937 rng_{static_cast<uint32_t>(GetParam() * 69061 + 17)};
};

TEST_P(PipelineTest, GeneratorsProduceReducedNonEmptySchemas) {
  RandomSchemaParams params;
  Edtd general = RandomEdtd(&rng_, params);
  EXPECT_GT(general.num_types(), 0);
  EXPECT_TRUE(IsReduced(general));
  Edtd single = RandomStEdtd(&rng_, params);
  EXPECT_GT(single.num_types(), 0);
  EXPECT_TRUE(IsSingleType(single));
  EXPECT_TRUE(IsReduced(single));
}

TEST_P(PipelineTest, SampledTreesAreMembers) {
  RandomSchemaParams params;
  Edtd schema = RandomStEdtd(&rng_, params);
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  for (int i = 0; i < 10; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng_, 5);
    ASSERT_TRUE(tree.has_value());
    EXPECT_TRUE(xsd.Accepts(*tree)) << tree->ToString(xsd.sigma);
  }
}

TEST_P(PipelineTest, TextFormatRoundTripsRandomSchemas) {
  RandomSchemaParams params;
  params.num_types = 4;
  Edtd schema = RandomStEdtd(&rng_, params);
  std::string text = SchemaToText(schema);
  StatusOr<Edtd> reparsed = ParseSchema(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *reparsed)) << text;
}

TEST_P(PipelineTest, UpperBooleanLatticeLaws) {
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 1;
  Edtd d1 = RandomStEdtd(&rng_, params);
  Edtd d2 = RandomStEdtd(&rng_, params);

  // Union upper bound contains both inputs.
  DfaXsd u = *UpperUnion(d1, d2);
  EXPECT_TRUE(EdtdIncludedInXsd(d1, u));
  EXPECT_TRUE(EdtdIncludedInXsd(d2, u));

  // Intersection is exact: included in both inputs.
  DfaXsd i = *UpperIntersection(d1, d2);
  Edtd i_edtd = StEdtdFromDfaXsd(i);
  EXPECT_TRUE(*IncludedInSingleType(i_edtd, d1));
  EXPECT_TRUE(*IncludedInSingleType(i_edtd, d2));

  // On bounded documents: union upper accepts everything either accepts;
  // intersection accepts exactly the common documents.
  auto [a1, a2] = AlignAlphabets(d1, d2);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    bool in1 = a1.Accepts(tree), in2 = a2.Accepts(tree);
    if (in1 || in2) {
      EXPECT_TRUE(u.Accepts(tree));
    }
    EXPECT_EQ(i.Accepts(tree), in1 && in2) << tree.ToString(a1.sigma);
  }
}

TEST_P(PipelineTest, ComplementUpperCoversAllNonMembers) {
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  Edtd d = RandomStEdtd(&rng_, params);
  DfaXsd upper = *UpperComplement(d);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    if (!d.Accepts(tree)) {
      EXPECT_TRUE(upper.Accepts(tree)) << tree.ToString(d.sigma);
    }
  }
}

TEST_P(PipelineTest, DifferenceUpperSandwich) {
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  Edtd d1 = RandomStEdtd(&rng_, params);
  Edtd d2 = RandomStEdtd(&rng_, params);
  DfaXsd diff = *UpperDifference(d1, d2);
  auto [a1, a2] = AlignAlphabets(d1, d2);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    bool in_diff_semantics = a1.Accepts(tree) && !a2.Accepts(tree);
    // Upper bound of the difference...
    if (in_diff_semantics) {
      EXPECT_TRUE(diff.Accepts(tree)) << tree.ToString(a1.sigma);
    }
    // ...and never exceeding D1 (closure stays within the single-type
    // superset D1).
    if (!a1.Accepts(tree)) {
      EXPECT_FALSE(diff.Accepts(tree)) << tree.ToString(a1.sigma);
    }
  }
}

TEST_P(PipelineTest, MinimizationIsOrderInsensitive) {
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd d1 = RandomStEdtd(&rng_, params);
  Edtd d2 = RandomStEdtd(&rng_, params);
  // minimize(upper(d1 ∪ d2)) must equal minimize(upper(d2 ∪ d1)).
  DfaXsd u12 = MinimizeXsd(*UpperUnion(d1, d2));
  DfaXsd u21 = MinimizeXsd(*UpperUnion(d2, d1));
  // Alphabets may be permuted between the two orders; compare languages.
  EXPECT_TRUE(*SingleTypeEquivalent(StEdtdFromDfaXsd(u12),
                                    StEdtdFromDfaXsd(u21)));
}

// The counted-content variants: with repeat_percent set the generators
// route through RandomRepeatContent, so the pipeline laws above are also
// exercised on kRepeat (r{n,m}) content models — a path PR 8 added that
// the original tests never reached.

TEST_P(PipelineTest, CountedContentSampledTreesAreMembers) {
  RandomSchemaParams params;
  params.repeat_percent = 100;
  Edtd schema = RandomStEdtd(&rng_, params);
  EXPECT_TRUE(IsSingleType(schema));
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  for (int i = 0; i < 10; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng_, 5);
    ASSERT_TRUE(tree.has_value());
    EXPECT_TRUE(xsd.Accepts(*tree)) << tree->ToString(xsd.sigma);
  }
}

TEST_P(PipelineTest, CountedContentTextFormatRoundTrips) {
  RandomSchemaParams params;
  params.num_types = 4;
  params.repeat_percent = 100;
  Edtd schema = RandomStEdtd(&rng_, params);
  std::string text = SchemaToText(schema);
  StatusOr<Edtd> reparsed = ParseSchema(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *reparsed)) << text;
}

TEST_P(PipelineTest, CountedContentUpperBooleanLatticeLaws) {
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 1;
  params.repeat_percent = 100;
  Edtd d1 = RandomStEdtd(&rng_, params);
  Edtd d2 = RandomStEdtd(&rng_, params);

  DfaXsd u = *UpperUnion(d1, d2);
  EXPECT_TRUE(EdtdIncludedInXsd(d1, u));
  EXPECT_TRUE(EdtdIncludedInXsd(d2, u));

  DfaXsd i = *UpperIntersection(d1, d2);
  Edtd i_edtd = StEdtdFromDfaXsd(i);
  EXPECT_TRUE(*IncludedInSingleType(i_edtd, d1));
  EXPECT_TRUE(*IncludedInSingleType(i_edtd, d2));

  auto [a1, a2] = AlignAlphabets(d1, d2);
  for (const Tree& tree : EnumerateTrees({3, 3, 2})) {
    bool in1 = a1.Accepts(tree), in2 = a2.Accepts(tree);
    if (in1 || in2) {
      EXPECT_TRUE(u.Accepts(tree));
    }
    EXPECT_EQ(i.Accepts(tree), in1 && in2) << tree.ToString(a1.sigma);
  }
}

// Theorem 3.5 as a cross-check on Construction 3.1: the minimal upper
// approximation of every random EDTD, counted content models included,
// passes the minimality check. This drives the check's (candidate state,
// type subset) pair walk through the schema-guided determinizer on
// random inputs, not just the fixed minimal_upper_check_test instances.
TEST_P(PipelineTest, UpperApproximationPassesTheMinimalityCheck) {
  for (int repeat_percent : {0, 100}) {
    RandomSchemaParams params;
    params.repeat_percent = repeat_percent;
    Edtd edtd = RandomEdtd(&rng_, params);
    Edtd upper = StEdtdFromDfaXsd(MinimalUpperApproximation(edtd));
    StatusOr<bool> minimal = IsMinimalUpperApproximation(upper, edtd);
    ASSERT_TRUE(minimal.ok()) << minimal.status();
    EXPECT_TRUE(*minimal) << "repeat_percent " << repeat_percent << "\n"
                          << SchemaToText(edtd);
  }
}

// Lemma 3.3's polynomial inclusion L(d) ⊆ L(x) agrees with the EXPTIME
// route through bottom-up tree-automaton determinization. x is the
// minimal upper approximation of d itself (always a superset) or of a
// second random EDTD (usually not), so both verdicts occur.
TEST(PipelineInclusionTest, Lemma33AgreesWithTheExactRoute) {
  int verdicts[2] = {0, 0};
  for (int seed = 0; seed < 50; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 69061 + 17));
    RandomSchemaParams params;
    params.num_types = 4;
    Edtd d = RandomEdtd(&rng, params);
    Edtd other = RandomEdtd(&rng, params);
    for (const Edtd* source : {&d, &other}) {
      DfaXsd x = MinimalUpperApproximation(*source);
      auto [d_aligned, x_aligned] = AlignAlphabets(d, StEdtdFromDfaXsd(x));
      const bool included = EdtdIncludedInXsd(d, x);
      EXPECT_EQ(included, EdtdIncludedInExact(d_aligned, x_aligned))
          << "seed " << seed << "\n"
          << SchemaToText(d) << "\n"
          << SchemaToText(*source);
      ++verdicts[included ? 1 : 0];
    }
  }
  EXPECT_GT(verdicts[1], 0) << "no included pair";
  EXPECT_GT(verdicts[0], 0) << "no non-included pair";
}

// The generators must actually emit kRepeat nodes, not just set the
// plumbing up: across the fixed seed range, reduction keeps at least
// some counted provenance, and every surviving entry contains a repeat.
TEST(PipelineRepeatProvenanceTest, GeneratorsEmitRepeatNodes) {
  int surviving_repeat_sources = 0;
  for (int seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 69061 + 17));
    RandomSchemaParams params;
    params.repeat_percent = 100;
    Edtd edtd = RandomEdtd(&rng, params);
    EXPECT_TRUE(IsReduced(edtd)) << "seed " << seed;
    if (edtd.content_source.empty()) continue;  // retry-exhausted fallback
    EXPECT_EQ(edtd.content_source.size(), edtd.content.size());
    for (const RegexPtr& source : edtd.content_source) {
      if (source == nullptr) continue;
      EXPECT_TRUE(source->ContainsRepeat()) << "seed " << seed;
      ++surviving_repeat_sources;
    }
  }
  EXPECT_GT(surviving_repeat_sources, 0)
      << "no counted content model survived generator reduction";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace stap
