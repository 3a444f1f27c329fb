// Tests for schema comparison reports (approx/diff_report.h).
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/diff_report.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"

namespace stap {
namespace {

Edtd Orders(const std::string& items) {
  SchemaBuilder builder;
  builder.AddType("Order", "order", "Customer " + items);
  builder.AddType("Customer", "customer", "%");
  builder.AddType("Item", "item", "%");
  builder.AddStart("Order");
  return builder.Build();
}

TEST(DiffReportTest, DetectsSubsetWithWitness) {
  Edtd v1 = Orders("Item+");
  Edtd v2 = Orders("Item*");
  SchemaDiffReport report = *CompareSchemas(v1, v2);
  EXPECT_EQ(report.relation, SchemaRelation::kSubset);
  EXPECT_FALSE(report.only_in_a.has_value());
  ASSERT_TRUE(report.only_in_b.has_value());
  // The witness is the item-less order.
  EXPECT_EQ(report.only_in_b->children.size(), 1u);
  EXPECT_GT(report.count_b, report.count_a);
  EXPECT_EQ(report.count_intersection, report.count_a);
}

TEST(DiffReportTest, DetectsEquivalence) {
  Edtd v1 = Orders("Item Item*");
  Edtd v2 = Orders("Item+");
  SchemaDiffReport report = *CompareSchemas(v1, v2);
  EXPECT_EQ(report.relation, SchemaRelation::kEquivalent);
  EXPECT_FALSE(report.only_in_a.has_value());
  EXPECT_FALSE(report.only_in_b.has_value());
  EXPECT_EQ(report.count_a, report.count_b);
}

TEST(DiffReportTest, DetectsIncomparability) {
  Edtd v1 = Orders("Item");
  Edtd v2 = Orders("Item Item");
  SchemaDiffReport report = *CompareSchemas(v1, v2);
  EXPECT_EQ(report.relation, SchemaRelation::kIncomparable);
  EXPECT_TRUE(report.only_in_a.has_value());
  EXPECT_TRUE(report.only_in_b.has_value());
  EXPECT_NE(report.ToString().find("INCOMPARABLE"), std::string::npos);
}

// Property: the report's relation matches pairwise inclusion semantics on
// random schema pairs, and the witnesses certify it.
class DiffReportRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffReportRandomTest, RelationMatchesWitnesses) {
  std::mt19937 rng(GetParam() * 6151 + 5);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd a = RandomStEdtd(&rng, params);
  Edtd b = RandomStEdtd(&rng, params);
  SchemaDiffReport report = *CompareSchemas(a, b, nullptr, 3, 3);
  switch (report.relation) {
    case SchemaRelation::kEquivalent:
      EXPECT_EQ(report.count_a, report.count_b);
      EXPECT_EQ(report.count_a, report.count_intersection);
      break;
    case SchemaRelation::kSubset:
      EXPECT_LE(report.count_a, report.count_b);
      EXPECT_EQ(report.count_intersection, report.count_a);
      break;
    case SchemaRelation::kSuperset:
      EXPECT_GE(report.count_a, report.count_b);
      EXPECT_EQ(report.count_intersection, report.count_b);
      break;
    case SchemaRelation::kIncomparable:
      EXPECT_LE(report.count_intersection, report.count_a);
      EXPECT_LE(report.count_intersection, report.count_b);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffReportRandomTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace stap
