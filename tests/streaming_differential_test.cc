// Differential tests for the one DfaXsd validation kernel
// (StreamingValidator). On random single-type schemas, every way into it —
// DfaXsd::Accepts, ValidateWithDiagnostics and the raw event API — must
// agree with three independent references: ReferenceAccepts below, a
// whole-child-string tree walker kept only for this comparison, the
// EDTD obtained by converting the XSD back (Edtd::Accepts), and the
// monoid forest automaton of the XSD (oracles/forest_monoid.h), which
// evaluates bottom-up in a transformation monoid. The inputs are
// valid documents, random mutations of them, and arbitrary enumerated
// trees; every diagnostic on a rejected tree must also point at a node
// that really is at fault. A second group drives the event API directly
// with malformed sequences — out-of-range symbols, a second root,
// EndElement with nothing open — which no tree-shaped input can produce.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "oracles/forest_monoid.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/streaming.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/validate.h"
#include "stap/tree/enumerate.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// Every node of `tree` in pre-order, as mutable pointers.
std::vector<Tree*> CollectNodes(Tree* tree) {
  std::vector<Tree*> nodes;
  std::vector<Tree*> stack = {tree};
  while (!stack.empty()) {
    Tree* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (Tree& child : node->children) stack.push_back(&child);
  }
  return nodes;
}

// One random structural edit: relabel a node, drop a child, or duplicate
// a child. The result may or may not still be valid — the point is that
// all validators agree on whichever it is.
Tree Mutate(const Tree& original, std::mt19937* rng, int num_symbols) {
  Tree tree = original;
  std::vector<Tree*> nodes = CollectNodes(&tree);
  Tree* node = nodes[(*rng)() % nodes.size()];
  switch ((*rng)() % 3) {
    case 0:
      node->label = static_cast<int>((*rng)() % num_symbols);
      break;
    case 1:
      if (!node->children.empty()) {
        node->children.erase(node->children.begin() +
                             (*rng)() % node->children.size());
      }
      break;
    default:
      if (!node->children.empty()) {
        const Tree& child = node->children[(*rng)() % node->children.size()];
        node->children.push_back(child);
      }
      break;
  }
  return tree;
}

// Test-only reference: an explicit-stack pre-order walk that checks each
// node's whole child string against its content DFA on entry, before its
// children are typed. Deliberately not the event kernel's algorithm.
bool ReferenceAccepts(const DfaXsd& xsd, const Tree& tree) {
  if (tree.label < 0 || tree.label >= xsd.sigma.size()) return false;
  if (!StateSetContains(xsd.start_symbols, tree.label)) return false;
  const int root_state =
      xsd.automaton.Next(xsd.automaton.initial(), tree.label);
  if (root_state == kNoState) return false;
  struct Frame {
    const Tree* node;
    int state;
    size_t next_child;
  };
  auto content_ok = [&](const Tree& node, int state) {
    Word child_string;
    for (const Tree& child : node.children) {
      if (child.label < 0 || child.label >= xsd.sigma.size()) return false;
      child_string.push_back(child.label);
    }
    return xsd.content[state].Accepts(child_string);
  };
  if (!content_ok(tree, root_state)) return false;
  std::vector<Frame> stack = {Frame{&tree, root_state, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child == frame.node->children.size()) {
      stack.pop_back();
      continue;
    }
    const Tree& child = frame.node->children[frame.next_child++];
    const int child_state = xsd.automaton.Next(frame.state, child.label);
    if (child_state == kNoState || !content_ok(child, child_state)) {
      return false;
    }
    stack.push_back(Frame{&child, child_state, 0});
  }
  return true;
}

// The raw event API, driven recursively (the trees here are shallow).
void FeedEvents(const Tree& node, StreamingValidator* v) {
  if (!v->StartElement(node.label)) return;
  for (const Tree& child : node.children) FeedEvents(child, v);
  v->EndElement();
}

// A diagnostic is truthful when the node it names is at fault on its own:
// the root with a bad label, a node with no type in its parent's context,
// or a typed node whose child string its content DFA rejects.
void ExpectTruthfulDiagnostic(const DfaXsd& xsd, const Tree& tree,
                              const ValidationResult& result) {
  ASSERT_TRUE(tree.IsValidPath(result.violation_path)) << result.message;
  int state = xsd.automaton.initial();
  const Tree* node = &tree;
  for (int index : result.violation_path) {
    state = xsd.automaton.Next(state, node->label);
    ASSERT_NE(state, kNoState) << "an ancestor of the reported node is "
                                  "already untyped: " << result.message;
    node = &node->children[index];
  }
  if (result.violation_path.empty() &&
      !StateSetContains(xsd.start_symbols, node->label)) {
    return;  // root not a start symbol
  }
  if (node->label < 0 || node->label >= xsd.sigma.size()) return;
  state = xsd.automaton.Next(state, node->label);
  if (state == kNoState) return;  // undeclared in its context
  Word child_string;
  for (const Tree& child : node->children) child_string.push_back(child.label);
  EXPECT_FALSE(xsd.content[state].Accepts(child_string))
      << "reported node is not at fault: " << result.message << " in "
      << tree.ToString(xsd.sigma);
}

void ExpectAllValidatorsAgree(const DfaXsd& xsd, const Edtd& round_trip,
                              const MonoidForestAutomaton& mfa,
                              const Tree& tree) {
  const bool expected = ReferenceAccepts(xsd, tree);
  EXPECT_EQ(round_trip.Accepts(tree), expected) << tree.ToString(xsd.sigma);
  EXPECT_EQ(mfa.AcceptsTree(tree), expected) << tree.ToString(xsd.sigma);
  EXPECT_EQ(xsd.Accepts(tree), expected) << tree.ToString(xsd.sigma);
  StreamingValidator events(&xsd);
  FeedEvents(tree, &events);
  EXPECT_EQ(events.EndDocument(), expected) << tree.ToString(xsd.sigma);
  const ValidationResult result = ValidateWithDiagnostics(xsd, tree);
  EXPECT_EQ(result.ok, expected) << tree.ToString(xsd.sigma);
  if (!result.ok) {
    // The event API and the tree replay find the same first violation.
    EXPECT_EQ(events.violation().path, result.violation_path)
        << tree.ToString(xsd.sigma);
    ExpectTruthfulDiagnostic(xsd, tree, result);
  }
}

class StreamingDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingDifferentialTest, AgreesOnRandomSchemasAndTrees) {
  std::mt19937 rng(MixSeed(GetParam()));
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 5;
  params.content_breadth = 2;
  DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  Edtd round_trip = StEdtdFromDfaXsd(xsd);
  MonoidForestAutomaton mfa = MfaFromXsd(xsd);

  // Sampled members, then mutated members.
  for (int i = 0; i < 8; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng, 5);
    ASSERT_TRUE(tree.has_value());
    EXPECT_TRUE(ReferenceAccepts(xsd, *tree)) << tree->ToString(xsd.sigma);
    ExpectAllValidatorsAgree(xsd, round_trip, mfa, *tree);
    Tree mutated = Mutate(*tree, &rng, params.num_symbols);
    for (int j = 0; j < 3; ++j) {
      ExpectAllValidatorsAgree(xsd, round_trip, mfa, mutated);
      mutated = Mutate(mutated, &rng, params.num_symbols);
    }
  }
  // Exhaustive small trees, valid or not.
  for (const Tree& tree : EnumerateTrees({3, 2, params.num_symbols})) {
    ExpectAllValidatorsAgree(xsd, round_trip, mfa, tree);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingDifferentialTest,
                         ::testing::Range(0, 25));

DfaXsd ChainXsd() {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R?");
  builder.AddStart("R");
  return DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
}

TEST(StreamingMalformedTest, EndElementWithNothingOpen) {
  DfaXsd xsd = ChainXsd();
  StreamingValidator v(&xsd);
  EXPECT_FALSE(v.EndElement());
  EXPECT_FALSE(v.ok());
  // The rejection latches: a well-formed continuation cannot revive it.
  EXPECT_FALSE(v.StartElement(0));
  EXPECT_FALSE(v.EndDocument());
}

TEST(StreamingMalformedTest, SecondRootIsRejected) {
  DfaXsd xsd = ChainXsd();
  StreamingValidator v(&xsd);
  EXPECT_TRUE(v.StartElement(0));
  EXPECT_TRUE(v.EndElement());
  EXPECT_TRUE(v.EndDocument());  // complete document so far
  EXPECT_FALSE(v.StartElement(0));
  EXPECT_FALSE(v.EndDocument());
}

TEST(StreamingMalformedTest, OutOfRangeSymbolsAreRejectedNotIndexed) {
  DfaXsd xsd = ChainXsd();
  const int bogus[] = {-1, -1000000, xsd.sigma.size(), xsd.sigma.size() + 7,
                       1 << 30};
  for (int symbol : bogus) {
    {
      StreamingValidator v(&xsd);
      EXPECT_FALSE(v.StartElement(symbol)) << symbol;
      EXPECT_FALSE(v.ok()) << symbol;
    }
    {
      // Mid-document, where the parent's content run is live.
      StreamingValidator v(&xsd);
      ASSERT_TRUE(v.StartElement(0));
      EXPECT_FALSE(v.StartElement(symbol)) << symbol;
      EXPECT_FALSE(v.ok()) << symbol;
    }
  }
}

TEST(StreamingMalformedTest, UnclosedElementFailsOnlyAtEndDocument) {
  DfaXsd xsd = ChainXsd();
  StreamingValidator v(&xsd);
  EXPECT_TRUE(v.StartElement(0));
  EXPECT_TRUE(v.StartElement(0));
  EXPECT_TRUE(v.EndElement());
  EXPECT_TRUE(v.ok());          // no violation yet...
  EXPECT_FALSE(v.EndDocument());  // ...but the root is still open
}

TEST(StreamingDeepDocumentTest, ValidatesPathDeeperThanTheCallStack) {
  // A 200k-deep chain of <a> elements: recursion over the document would
  // overflow the stack, so this doubles as a regression test for the
  // explicit-stack tree replay (ReplayTree).
  DfaXsd xsd = ChainXsd();
  constexpr int kDepth = 200000;
  StreamingValidator v(&xsd);
  for (int i = 0; i < kDepth; ++i) ASSERT_TRUE(v.StartElement(0));
  EXPECT_EQ(v.depth(), kDepth);
  for (int i = 0; i < kDepth; ++i) ASSERT_TRUE(v.EndElement());
  EXPECT_TRUE(v.EndDocument());

  Tree deep(0);
  for (int i = 1; i < kDepth; ++i) {
    Tree next(0);
    next.children.push_back(std::move(deep));
    deep = std::move(next);
  }
  EXPECT_TRUE(xsd.Accepts(deep));
  EXPECT_TRUE(ValidateWithDiagnostics(xsd, deep).ok);
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
