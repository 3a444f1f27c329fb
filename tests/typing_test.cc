// Tests for type assignments (schema/typing.h).
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/typing.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

Edtd ContextSchema() {
  SchemaBuilder builder;
  builder.AddType("Root", "a", "Left Right");
  builder.AddType("Left", "l", "X1?");
  builder.AddType("Right", "r", "X2?");
  builder.AddType("X1", "x", "%");
  builder.AddType("X2", "x", "%");
  builder.AddStart("Root");
  return ReduceEdtd(builder.Build());
}

TEST(TypingTest, SingleTypeAssignmentIsDeterminedByContext) {
  Edtd schema = ContextSchema();
  ASSERT_TRUE(IsSingleType(schema));
  Alphabet& s = schema.sigma;
  int a = s.Find("a"), l = s.Find("l"), r = s.Find("r"), x = s.Find("x");
  Tree doc(a, {Tree(l, {Tree(x)}), Tree(r, {Tree(x)})});
  std::optional<Typing> typing = AssignTypesEdtd(schema, doc);
  ASSERT_TRUE(typing.has_value());
  ASSERT_EQ(typing->paths.size(), 5u);
  // Document order: root, then each subtree left to right.
  EXPECT_EQ(typing->paths,
            (std::vector<TreePath>{{}, {0}, {0, 0}, {1}, {1, 0}}));
  // The two x-nodes receive different types, keyed by their ancestors.
  int type_left_x = -1, type_right_x = -1;
  for (size_t i = 0; i < typing->paths.size(); ++i) {
    if (typing->paths[i] == TreePath{0, 0}) type_left_x = typing->types[i];
    if (typing->paths[i] == TreePath{1, 0}) type_right_x = typing->types[i];
  }
  ASSERT_GE(type_left_x, 0);
  ASSERT_GE(type_right_x, 0);
  EXPECT_NE(type_left_x, type_right_x);
  EXPECT_EQ(schema.mu[type_left_x], x);
  EXPECT_EQ(schema.mu[type_right_x], x);
  // Invalid documents yield no typing.
  EXPECT_FALSE(AssignTypesEdtd(schema, Tree(a)).has_value());
  EXPECT_FALSE(AssignTypesEdtd(schema, Tree(x)).has_value());
}

// start A / type A : a -> A? / type B : b -> %, over a chain of a's.
Edtd ChainSchema() {
  SchemaBuilder builder;
  builder.AddType("A", "a", "A?");
  builder.AddType("B", "b", "%");
  builder.AddStart("A");
  return builder.Build();
}

// A chain of `depth` a-nodes, with a b-leaf under the deepest one when
// `b_leaf` is set.
Tree DeepChain(const Edtd& schema, int depth, bool b_leaf) {
  const int a = schema.sigma.Find("a");
  Tree tree = b_leaf ? Tree(a, {Tree(schema.sigma.Find("b"))}) : Tree(a);
  for (int i = 1; i < depth; ++i) {
    std::vector<Tree> children;
    children.push_back(std::move(tree));
    tree = Tree(a, std::move(children));
  }
  return tree;
}

// Counting and extraction use explicit stacks: documents far deeper than
// the call stack allows are counted and rejected without recursion.
TEST(TypingTest, DeepDocuments) {
  Edtd schema = ChainSchema();
  EXPECT_EQ(CountTypings(schema, DeepChain(schema, 200000, false)), 1);
  Tree invalid = DeepChain(schema, 100000, true);
  EXPECT_EQ(CountTypings(schema, invalid), 0);
  EXPECT_FALSE(AssignTypesEdtd(schema, invalid).has_value());
  // A valid chain gets one typing, every node typed A, in document order.
  std::optional<Typing> typing =
      AssignTypesEdtd(schema, DeepChain(schema, 1000, false));
  ASSERT_TRUE(typing.has_value());
  ASSERT_EQ(typing->types.size(), 1000u);
  const int type_a = schema.types.Find("A");
  for (size_t i = 0; i < typing->types.size(); ++i) {
    EXPECT_EQ(typing->types[i], type_a);
    EXPECT_EQ(typing->paths[i].size(), i);
  }
}

TEST(TypingTest, EdtdTypingExistsIffAccepted) {
  Edtd schema = ContextSchema();
  for (const Tree& tree : EnumerateTrees({3, 2, schema.sigma.size()})) {
    std::optional<Typing> typing = AssignTypesEdtd(schema, tree);
    EXPECT_EQ(typing.has_value(), schema.Accepts(tree))
        << tree.ToString(schema.sigma);
    if (typing.has_value()) {
      EXPECT_EQ(typing->paths.size(),
                static_cast<size_t>(tree.NumNodes()));
    }
  }
}

// Checks that `typing` satisfies `schema` on `tree`: it lists every node
// once, in document order, each node's type carries its label, and each
// node's children types form a word in its content language.
void ExpectConsistent(const Edtd& schema, const Tree& tree,
                      const Typing& typing) {
  ASSERT_EQ(typing.paths.size(), static_cast<size_t>(tree.NumNodes()));
  std::map<TreePath, int> type_at;
  for (size_t i = 0; i < typing.paths.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(typing.paths[i - 1], typing.paths[i]);
    }
    type_at[typing.paths[i]] = typing.types[i];
  }
  for (const TreePath& path : tree.AllPaths()) {
    ASSERT_TRUE(type_at.contains(path));
    int tau = type_at[path];
    EXPECT_EQ(schema.mu[tau], tree.At(path).label);
    Word child_types;
    const Tree& node = tree.At(path);
    for (size_t i = 0; i < node.children.size(); ++i) {
      TreePath child = path;
      child.push_back(static_cast<int>(i));
      child_types.push_back(type_at[child]);
    }
    EXPECT_TRUE(schema.content[tau].Accepts(child_types));
  }
}

TEST(TypingTest, ExtractedTypingsAreConsistent) {
  Edtd schema = ContextSchema();
  Alphabet& s = schema.sigma;
  Tree doc(s.Find("a"), {Tree(s.Find("l"), {Tree(s.Find("x"))}),
                         Tree(s.Find("r"))});
  std::optional<Typing> typing = AssignTypesEdtd(schema, doc);
  ASSERT_TRUE(typing.has_value());
  ExpectConsistent(schema, doc, *typing);
}

TEST(TypingTest, AmbiguityCounting) {
  // Two interchangeable types for the same leaf: 2 typings per leaf.
  SchemaBuilder builder;
  builder.AddType("R", "r", "(A1 | A2) (A1 | A2)");
  builder.AddType("A1", "a", "%");
  builder.AddType("A2", "a", "%");
  builder.AddStart("R");
  Edtd schema = builder.Build();
  int r = schema.sigma.Find("r"), a = schema.sigma.Find("a");
  Tree doc(r, {Tree(a), Tree(a)});
  EXPECT_EQ(CountTypings(schema, doc), 4);
  EXPECT_EQ(CountTypings(schema, Tree(r)), 0);
  EXPECT_EQ(CountTypings(schema, Tree(a)), 0);
}

TEST(TypingTest, SingleTypeSchemasAreUnambiguous) {
  Edtd schema = ContextSchema();
  ASSERT_TRUE(IsSingleType(schema));
  for (const Tree& tree : EnumerateTrees({3, 2, schema.sigma.size()})) {
    int64_t count = CountTypings(schema, tree);
    EXPECT_EQ(count, schema.Accepts(tree) ? 1 : 0)
        << tree.ToString(schema.sigma);
  }
}

// Property: for random single-type schemas, XSD acceptance and EDTD
// typing agree on existence, and single-type counting is 0/1.
class TypingRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TypingRandomTest, XsdAndEdtdTypingsAgree) {
  std::mt19937 rng(GetParam() * 1723 + 9);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd schema = RandomStEdtd(&rng, params);
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    bool accepted = schema.Accepts(tree);
    EXPECT_EQ(xsd.Accepts(tree), accepted);
    EXPECT_EQ(AssignTypesEdtd(schema, tree).has_value(), accepted);
    EXPECT_EQ(CountTypings(schema, tree), accepted ? 1 : 0);
  }
}

// Property: for random (generally ambiguous) EDTDs, a typing exists iff
// the tree is accepted, every extracted typing is consistent, and the
// count is positive exactly then.
TEST_P(TypingRandomTest, EdtdTypingsAreConsistent) {
  std::mt19937 rng(GetParam() * 7411 + 3);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd schema = RandomEdtd(&rng, params);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    bool accepted = schema.Accepts(tree);
    std::optional<Typing> typing = AssignTypesEdtd(schema, tree);
    ASSERT_EQ(typing.has_value(), accepted) << tree.ToString(schema.sigma);
    EXPECT_EQ(CountTypings(schema, tree) > 0, accepted);
    if (typing.has_value()) ExpectConsistent(schema, tree, *typing);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypingRandomTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace stap
