// Tests for polynomial inclusion witnesses (XsdInclusionWitness,
// approx/inclusion.h): the verdict's pair walk read off at its first
// failing pair.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper_boolean.h"
#include "stap/base/budget.h"
#include "stap/base/thread_pool.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

TEST(MinimalTypeTreesTest, ProducesMembersPerType) {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book+");
  builder.AddType("Book", "book", "Title");
  builder.AddType("Title", "title", "%");
  builder.AddStart("Lib");
  Edtd schema = ReduceEdtd(builder.Build());
  std::vector<Tree> minimal = MinimalTypeTrees(schema);
  ASSERT_EQ(minimal.size(), 3u);
  int lib = schema.types.Find("Lib");
  EXPECT_TRUE(schema.Accepts(minimal[lib]));
  EXPECT_EQ(minimal[lib].NumNodes(), 3);  // library(book(title))
}

TEST(WitnessTest, ContentModelViolation) {
  SchemaBuilder sub;
  sub.AddType("R", "r", "A A A");
  sub.AddType("A", "a", "%");
  sub.AddStart("R");
  SchemaBuilder super;
  super.AddType("R", "r", "A A?");
  super.AddType("A", "a", "%");
  super.AddStart("R");
  Edtd d1 = sub.Build();
  Edtd d2 = ReduceEdtd(super.Build());
  DfaXsd xsd2 = DfaXsdFromStEdtd(d2);
  std::optional<Tree> witness = *XsdInclusionWitness(d1, xsd2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(d1.Accepts(*witness));
  EXPECT_FALSE(xsd2.Accepts(*witness));
}

TEST(WitnessTest, DeepViolationGetsWrapped) {
  // The disagreement sits three levels down.
  SchemaBuilder sub;
  sub.AddType("R", "r", "M");
  sub.AddType("M", "m", "N");
  sub.AddType("N", "n", "A A");  // two leaves
  sub.AddType("A", "a", "%");
  sub.AddStart("R");
  SchemaBuilder super;
  super.AddType("R", "r", "M");
  super.AddType("M", "m", "N");
  super.AddType("N", "n", "A");  // only one
  super.AddType("A", "a", "%");
  super.AddStart("R");
  Edtd d1 = sub.Build();
  DfaXsd xsd2 = DfaXsdFromStEdtd(ReduceEdtd(super.Build()));
  std::optional<Tree> witness = *XsdInclusionWitness(d1, xsd2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(d1.Accepts(*witness));
  EXPECT_FALSE(xsd2.Accepts(*witness));
  EXPECT_GE(witness->Depth(), 4);
}

TEST(WitnessTest, RootLabelViolation) {
  // The padding type fixes the alphabet order so that d1's symbol ids
  // coincide with the witness's merged alphabet (xsd2's symbols first).
  SchemaBuilder sub;
  sub.AddType("Pad", "a", "Pad");  // unproductive; only pins the alphabet
  sub.AddType("B", "b", "%");
  sub.AddStart("B");
  SchemaBuilder super;
  super.AddType("A", "a", "%");
  super.AddStart("A");
  Edtd d1 = sub.Build();
  DfaXsd xsd2 = DfaXsdFromStEdtd(ReduceEdtd(super.Build()));
  std::optional<Tree> witness = *XsdInclusionWitness(d1, xsd2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(d1.Accepts(*witness));
  EXPECT_FALSE(xsd2.Accepts(*witness));
}

TEST(WitnessTest, NoWitnessWhenIncluded) {
  SchemaBuilder sub;
  sub.AddType("R", "r", "A A");
  sub.AddType("A", "a", "%");
  sub.AddStart("R");
  SchemaBuilder super;
  super.AddType("R", "r", "A*");
  super.AddType("A", "a", "%");
  super.AddStart("R");
  Edtd d1 = sub.Build();
  DfaXsd xsd2 = DfaXsdFromStEdtd(ReduceEdtd(super.Build()));
  EXPECT_FALSE(XsdInclusionWitness(d1, xsd2)->has_value());
}

TEST(WitnessTest, NonSingleTypeLeftSides) {
  // Lemma 3.3 allows arbitrary EDTDs on the left; Theorem 4.3's union
  // schemas versus one disjunct gives a natural witness (an a*b chain).
  auto [d1, d2] = Theorem43Schemas();
  Edtd both = ReduceEdtd(EdtdUnion(d1, d2));
  DfaXsd only_d2 =
      DfaXsdFromStEdtd(ReduceEdtd(AlignAlphabets(d2, d1).first));
  ASSERT_TRUE(both.sigma == only_d2.sigma);
  std::optional<Tree> witness = *XsdInclusionWitness(both, only_d2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(both.Accepts(*witness));
  EXPECT_FALSE(only_d2.Accepts(*witness));
}

TEST(WitnessTest, HonoursTheStateBudget) {
  // Five reachable pairs (the root pair, then R, M, N, A); the violation
  // sits at N, so the pair walk runs before any witness exists.
  SchemaBuilder sub;
  sub.AddType("R", "r", "M");
  sub.AddType("M", "m", "N");
  sub.AddType("N", "n", "A A");
  sub.AddType("A", "a", "%");
  sub.AddStart("R");
  SchemaBuilder super;
  super.AddType("R", "r", "M");
  super.AddType("M", "m", "N");
  super.AddType("N", "n", "A");
  super.AddType("A", "a", "%");
  super.AddStart("R");
  Edtd d1 = sub.Build();
  DfaXsd xsd2 = DfaXsdFromStEdtd(ReduceEdtd(super.Build()));
  Budget tiny;
  tiny.set_max_states(2);
  StatusOr<std::optional<Tree>> exhausted =
      XsdInclusionWitness(d1, xsd2, nullptr, &tiny);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  // With room to finish, the same call returns the witness.
  Budget enough;
  StatusOr<std::optional<Tree>> witness =
      XsdInclusionWitness(d1, xsd2, nullptr, &enough);
  ASSERT_TRUE(witness.ok()) << witness.status();
  ASSERT_TRUE(witness->has_value());
  EXPECT_FALSE(xsd2.Accepts(**witness));
}

// Property sweep: the witness agrees with the Boolean inclusion test, and
// a 4-thread sweep finds the same first failing pair as the serial one.
class WitnessRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(WitnessRandomTest, WitnessIffNotIncluded) {
  std::mt19937 rng(GetParam() * 86969 + 41);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd d1 = RandomEdtd(&rng, params);
  Edtd d2 = RandomStEdtd(&rng, params);
  DfaXsd xsd2 = DfaXsdFromStEdtd(ReduceEdtd(d2));
  ASSERT_TRUE(d1.sigma == xsd2.sigma);  // generators intern identically
  bool included = EdtdIncludedInXsd(d1, xsd2);
  std::optional<Tree> witness = *XsdInclusionWitness(d1, xsd2);
  EXPECT_EQ(witness.has_value(), !included);
  if (witness.has_value()) {
    EXPECT_TRUE(d1.Accepts(*witness));
    EXPECT_FALSE(xsd2.Accepts(*witness));
  }

  ThreadPool pool(4);
  EXPECT_EQ(EdtdIncludedInXsd(d1, xsd2, &pool), included);
  std::optional<Tree> parallel = *XsdInclusionWitness(d1, xsd2, &pool);
  ASSERT_EQ(parallel.has_value(), witness.has_value());
  if (witness.has_value()) {
    EXPECT_EQ(ToXml(*parallel, xsd2.sigma), ToXml(*witness, xsd2.sigma));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessRandomTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace stap
