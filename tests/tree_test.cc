// Unit tests for unranked trees, subtree exchange, and enumeration.
#include <gtest/gtest.h>

#include "stap/tree/enumerate.h"
#include "stap/tree/tree.h"

namespace stap {
namespace {

// Labels: a=0, b=1, c=2.
Tree ABTree() {
  // a(b, a(b, c))
  return Tree(0, {Tree(1), Tree(0, {Tree(1), Tree(2)})});
}

TEST(TreeTest, BasicAccessors) {
  Tree tree = ABTree();
  EXPECT_EQ(tree.NumNodes(), 5);
  EXPECT_EQ(tree.Depth(), 3);
  EXPECT_FALSE(tree.IsLeaf());
  EXPECT_TRUE(tree.At({0}).IsLeaf());
  EXPECT_EQ(tree.At({1, 1}).label, 2);
  EXPECT_TRUE(tree.IsValidPath({1, 0}));
  EXPECT_FALSE(tree.IsValidPath({2}));
  EXPECT_FALSE(tree.IsValidPath({1, 1, 0}));
}

TEST(TreeTest, ChildAndAncestorStrings) {
  Tree tree = ABTree();
  EXPECT_EQ(tree.ChildString({}), (Word{1, 0}));
  EXPECT_EQ(tree.ChildString({1}), (Word{1, 2}));
  EXPECT_EQ(tree.ChildString({0}), Word{});
  EXPECT_EQ(tree.AncestorString({}), Word{0});
  EXPECT_EQ(tree.AncestorString({1, 1}), (Word{0, 0, 2}));
}

TEST(TreeTest, UnaryBuilder) {
  Tree tree = Tree::Unary({0, 0, 1});
  EXPECT_EQ(tree.Depth(), 3);
  EXPECT_EQ(tree.NumNodes(), 3);
  EXPECT_EQ(tree.AncestorString({0, 0}), (Word{0, 0, 1}));
}

TEST(TreeTest, ReplaceSubtree) {
  Tree tree = ABTree();
  Tree replaced = tree.ReplaceSubtree({1}, Tree(2));
  EXPECT_EQ(replaced.NumNodes(), 3);
  EXPECT_EQ(replaced.At({1}).label, 2);
  // Original is untouched (value semantics).
  EXPECT_EQ(tree.NumNodes(), 5);
  // Replacing the root returns the replacement itself.
  EXPECT_EQ(tree.ReplaceSubtree({}, Tree(1)), Tree(1));
}

TEST(TreeTest, AllPathsBreadthFirst) {
  Tree tree = ABTree();
  std::vector<TreePath> paths = tree.AllPaths();
  ASSERT_EQ(paths.size(), 5u);
  EXPECT_EQ(paths[0], TreePath{});
  EXPECT_EQ(paths[1], TreePath{0});
  EXPECT_EQ(paths[2], TreePath{1});
  EXPECT_EQ(paths[3], (TreePath{1, 0}));
  EXPECT_EQ(paths[4], (TreePath{1, 1}));
}

TEST(TreeTest, ToStringTermSyntax) {
  Alphabet alphabet({"a", "b", "c"});
  EXPECT_EQ(ABTree().ToString(alphabet), "a(b, a(b, c))");
  EXPECT_EQ(Tree(2).ToString(alphabet), "c");
}

TEST(TreeTest, OrderingIsTotal) {
  Tree a = Tree(0);
  Tree b = Tree(0, {Tree(1)});
  Tree c = Tree(1);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_FALSE(a < a);
}

TEST(ExchangeTest, GuardedExchangeRespectsAncestorStrings) {
  // t1 = a(b, a(b, c)), t2 = a(a(c, c)): nodes {1} in t1 and {0} in t2
  // both have ancestor string a·a.
  Tree t1 = ABTree();
  Tree t2 = Tree(0, {Tree(0, {Tree(2), Tree(2)})});
  ASSERT_TRUE(AncestorStringsEqual(t1, {1}, t2, {0}));
  Tree exchanged = AncestorGuardedExchange(t1, {1}, t2, {0});
  EXPECT_EQ(exchanged, Tree(0, {Tree(1), Tree(0, {Tree(2), Tree(2)})}));
  EXPECT_FALSE(AncestorStringsEqual(t1, {0}, t2, {0}));
}

TEST(EnumerateTest, CountsMatchMaterialization) {
  for (int depth = 1; depth <= 3; ++depth) {
    for (int width = 0; width <= 2; ++width) {
      TreeBounds bounds{depth, width, 2};
      std::vector<Tree> trees = EnumerateTrees(bounds);
      EXPECT_EQ(static_cast<int64_t>(trees.size()),
                CountTrees(bounds, 1 << 30))
          << "depth=" << depth << " width=" << width;
    }
  }
}

TEST(EnumerateTest, SmallCasesAreExact) {
  // Depth 1: just the leaves.
  EXPECT_EQ(EnumerateTrees({1, 2, 3}).size(), 3u);
  // Depth <= 2, width <= 1, 1 symbol: a and a(a).
  EXPECT_EQ(EnumerateTrees({2, 1, 1}).size(), 2u);
  // Depth <= 2, width <= 2, 1 symbol: a, a(a), a(a,a).
  EXPECT_EQ(EnumerateTrees({2, 2, 1}).size(), 3u);
}

TEST(EnumerateTest, RespectsBoundsAndUniqueness) {
  TreeBounds bounds{3, 2, 2};
  std::vector<Tree> trees = EnumerateTrees(bounds);
  for (const Tree& tree : trees) {
    EXPECT_LE(tree.Depth(), 3);
  }
  for (size_t i = 1; i < trees.size(); ++i) {
    EXPECT_FALSE(trees[i - 1] == trees[i]);
  }
  EXPECT_GT(trees.size(), 10u);
}

TEST(EnumerateTest, CountCapSaturates) {
  EXPECT_EQ(CountTrees({5, 5, 5}, 1000), 1000);
}

}  // namespace
}  // namespace stap
