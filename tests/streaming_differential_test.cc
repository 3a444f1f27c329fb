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
// A third leg works on bytes: ValidateDocument, which streams the XML
// tokenizer into the validators and builds no tree, must give the verdict
// of the tree oracle (ParseXml, then ValidateWithDiagnostics or
// Edtd::Accepts) on serialized random documents and byte mutations of
// them, on both the single-type and the EDTD path.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "oracles/forest_monoid.h"
#include "stap/base/budget.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/streaming.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/validate.h"
#include "stap/tree/enumerate.h"
#include "stap/tree/xml.h"
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

// --- Bytes-level leg -------------------------------------------------

// The verdict ValidateDocument gave when it built a tree: parse the whole
// document, charge its nodes to the budget, reject names outside Σ, then
// ValidateWithDiagnostics or Edtd::Accepts.
DocumentVerdict TreeOracleVerdict(const CompiledSchema& schema,
                                  std::string_view xml, Budget* budget) {
  DocumentVerdict verdict;
  Alphabet alphabet = schema.edtd.sigma;
  StatusOr<Tree> tree = ParseXml(xml, &alphabet);
  const Status status = tree.ok()
                            ? Budget::ChargeStates(budget, tree->NumNodes())
                            : tree.status();
  if (!status.ok()) {
    verdict.kind = DocumentVerdict::Kind::kError;
    verdict.message = status.message();
    verdict.error_code = status.code();
    return verdict;
  }
  verdict.kind = DocumentVerdict::Kind::kInvalid;
  if (alphabet.size() != schema.edtd.sigma.size()) {
    verdict.message = "document uses elements the schema does not declare";
  } else if (schema.single_type) {
    const ValidationResult result = ValidateWithDiagnostics(schema.xsd, *tree);
    if (result.ok) verdict.kind = DocumentVerdict::Kind::kValid;
    verdict.message = result.message;
  } else if (schema.edtd.Accepts(*tree)) {
    verdict.kind = DocumentVerdict::Kind::kValid;
  } else {
    verdict.message = "document not in the schema language";
  }
  return verdict;
}

// What the bytes-level leg saw, so it can insist every case came up.
struct VerdictTally {
  int valid = 0;
  int parse_errors = 0;
  int exhausted = 0;
  int undeclared = 0;
  int child_string = 0;     // single-type content-model messages
  int other_xsd = 0;        // root / undeclared-in-context messages
  int not_in_language = 0;  // the EDTD path's rejection
};

void Tally(const DocumentVerdict& verdict, VerdictTally* tally) {
  switch (verdict.kind) {
    case DocumentVerdict::Kind::kValid:
      ++tally->valid;
      return;
    case DocumentVerdict::Kind::kError:
      ++(verdict.error_code == StatusCode::kResourceExhausted
             ? tally->exhausted
             : tally->parse_errors);
      return;
    case DocumentVerdict::Kind::kInvalid:
      if (verdict.message.starts_with("document uses")) {
        ++tally->undeclared;
      } else if (verdict.message.starts_with("child string")) {
        ++tally->child_string;
      } else if (verdict.message == "document not in the schema language") {
        ++tally->not_in_language;
      } else {
        ++tally->other_xsd;
      }
      return;
  }
}

void ExpectSameVerdict(const DocumentVerdict& actual,
                       const DocumentVerdict& expected,
                       const std::string& xml) {
  EXPECT_EQ(actual.kind, expected.kind) << xml;
  EXPECT_EQ(actual.message, expected.message) << xml;
  EXPECT_EQ(actual.error_code, expected.error_code) << xml;
}

// Compares ValidateDocument with the oracle on `xml`, unbudgeted and
// under state quotas one short of and equal to the element count.
void ExpectVerdictMatchesOracle(const CompiledSchema& schema,
                                const std::string& xml, VerdictTally* tally) {
  const DocumentVerdict expected = TreeOracleVerdict(schema, xml, nullptr);
  const DocumentVerdict actual = ValidateDocument(schema, xml, nullptr);
  ExpectSameVerdict(actual, expected, xml);
  Tally(actual, tally);
  Alphabet alphabet = schema.edtd.sigma;
  StatusOr<Tree> tree = ParseXml(xml, &alphabet);
  if (!tree.ok()) return;
  for (int64_t quota : {tree->NumNodes() - 1, tree->NumNodes()}) {
    Budget oracle_budget;
    oracle_budget.set_max_states(quota);
    Budget budget;
    budget.set_max_states(quota);
    const DocumentVerdict budgeted = ValidateDocument(schema, xml, &budget);
    ExpectSameVerdict(budgeted,
                      TreeOracleVerdict(schema, xml, &oracle_budget), xml);
    Tally(budgeted, tally);
  }
}

// Offsets of every '<' in `xml` that opens a start tag (not "</").
std::vector<size_t> StartTags(const std::string& xml) {
  std::vector<size_t> starts;
  for (size_t i = 0; i + 1 < xml.size(); ++i) {
    if (xml[i] == '<' && xml[i + 1] != '/') starts.push_back(i);
  }
  return starts;
}

// The end of the element name whose start tag opens at `tag`.
size_t NameEnd(const std::string& xml, size_t tag) {
  size_t end = tag + 1;
  while (end < xml.size() && xml[end] != '>' && xml[end] != '/' &&
         xml[end] != ' ') {
    ++end;
  }
  return end;
}

// Byte-level variants of a serialized document: a truncation that cuts
// at least its last '>', a closing tag renamed to another element's name,
// an injected attribute, text and comment, and trailing content after
// the root (a parse error behind whatever the validator saw first).
std::vector<std::string> ByteMutations(const std::string& xml,
                                       std::mt19937* rng) {
  std::vector<std::string> variants;
  const size_t last = xml.rfind('>');
  variants.push_back(xml.substr(0, (*rng)() % (last + 1)));

  const std::vector<size_t> starts = StartTags(xml);
  const size_t tag = starts[(*rng)() % starts.size()];
  const std::string name = xml.substr(tag + 1, NameEnd(xml, tag) - tag - 1);
  const size_t close = xml.find("</");
  if (close != std::string::npos) {
    const size_t close_end = xml.find('>', close);
    variants.push_back(xml.substr(0, close + 2) + name +
                       xml.substr(close_end));
  }
  const size_t name_end = NameEnd(xml, tag);
  variants.push_back(xml.substr(0, name_end) + " id=\"1\"" +
                     xml.substr(name_end));
  const size_t after = xml.find('>', tag) + 1;
  variants.push_back(xml.substr(0, after) + "text" + xml.substr(after));
  variants.push_back(xml.substr(0, after) + "<!-- note -->" +
                     xml.substr(after));
  variants.push_back(xml + "<tail/>");
  return variants;
}

// `tree` serialized, then serialized again with one of its labels
// renamed to a name outside Σ, then each byte mutation of the first.
void CheckDocument(const CompiledSchema& schema, const Tree& tree,
                   std::mt19937* rng, VerdictTally* tally) {
  const Alphabet& sigma = schema.edtd.sigma;
  const std::string xml = ToXml(tree, sigma);
  ExpectVerdictMatchesOracle(schema, xml, tally);
  std::vector<std::string> names = sigma.names();
  names[(*rng)() % names.size()] = "undeclared";
  ExpectVerdictMatchesOracle(schema, ToXml(tree, Alphabet(names)), tally);
  for (const std::string& variant : ByteMutations(xml, rng)) {
    ExpectVerdictMatchesOracle(schema, variant, tally);
  }
}

TEST(DocumentBytesDifferentialTest, StreamingVerdictsMatchTheTreeOracle) {
  // Small trees drawn per schema from the exhaustive depth-3 enumeration.
  constexpr int kSmallTrees = 150;
  VerdictTally xsd_tally;
  VerdictTally edtd_tally;
  int edtd_schemas = 0;
  for (int seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(MixSeed(seed));
    RandomSchemaParams params;
    params.num_symbols = 3;
    params.num_types = 5;
    params.content_breadth = 2;

    // Single-type: sampled members, their mutations, and small trees,
    // valid or not.
    const CompiledSchema xsd_schema =
        MakeCompiledSchema(RandomStEdtd(&rng, params));
    ASSERT_TRUE(xsd_schema.single_type);
    const int num_symbols = xsd_schema.edtd.num_symbols();
    for (int i = 0; i < 6; ++i) {
      std::optional<Tree> tree = SampleTree(xsd_schema.xsd, &rng, 5);
      ASSERT_TRUE(tree.has_value());
      CheckDocument(xsd_schema, *tree, &rng, &xsd_tally);
      CheckDocument(xsd_schema, Mutate(*tree, &rng, num_symbols), &rng,
                    &xsd_tally);
    }
    const std::vector<Tree> small = EnumerateTrees({3, 2, num_symbols});
    for (int i = 0; i < kSmallTrees; ++i) {
      CheckDocument(xsd_schema, small[rng() % small.size()], &rng, &xsd_tally);
    }

    // Arbitrary EDTDs; those that are not single-type take the
    // type-set path.
    const CompiledSchema edtd_schema =
        MakeCompiledSchema(RandomEdtd(&rng, params));
    if (edtd_schema.single_type) continue;
    ++edtd_schemas;
    const std::vector<Tree> trees =
        EnumerateTrees({3, 2, edtd_schema.edtd.num_symbols()});
    for (int i = 0; i < kSmallTrees; ++i) {
      CheckDocument(edtd_schema, trees[rng() % trees.size()], &rng,
                    &edtd_tally);
    }
  }
  // Every branch of the verdict came up.
  EXPECT_GT(edtd_schemas, 0);
  for (const VerdictTally* tally : {&xsd_tally, &edtd_tally}) {
    EXPECT_GT(tally->valid, 0);
    EXPECT_GT(tally->parse_errors, 0);
    EXPECT_GT(tally->exhausted, 0);
    EXPECT_GT(tally->undeclared, 0);
  }
  EXPECT_GT(xsd_tally.child_string, 0);
  EXPECT_GT(xsd_tally.other_xsd, 0);
  EXPECT_GT(edtd_tally.not_in_language, 0);
}

// A violation early in a document, then a parse error at its very end:
// the tokenizer reads on, and the parse error wins.
TEST(DocumentBytesDifferentialTest, ParseErrorAfterAViolationWins) {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book*");
  builder.AddType("Book", "book", "Title");
  builder.AddType("Title", "title", "%");
  builder.AddStart("Lib");
  const CompiledSchema schema = MakeCompiledSchema(builder.Build());
  ASSERT_TRUE(schema.single_type);
  const std::string invalid = "<library><book/><book><title/></book>";
  DocumentVerdict verdict = ValidateDocument(schema, invalid + "</library>",
                                             nullptr);
  EXPECT_EQ(verdict.kind, DocumentVerdict::Kind::kInvalid);
  EXPECT_EQ(verdict.message,
            "child string [] of element <book> does not match its content "
            "model");
  verdict = ValidateDocument(schema, invalid + "</library", nullptr);
  EXPECT_EQ(verdict.kind, DocumentVerdict::Kind::kError);
  EXPECT_EQ(verdict.error_code, StatusCode::kInvalidArgument);
  EXPECT_EQ(verdict.message,
            "XML parse error at offset 46: expected '>' after closing tag "
            "name");
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
