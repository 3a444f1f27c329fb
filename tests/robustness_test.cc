// Robustness tests: parsers and renderers must reject malformed input
// with Status errors (never crash), and renderer output must stay
// re-parseable under mutation-free round trips.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/regex/parser.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"
#include "stap/schema/validate.h"
#include "stap/schema/xsd_io.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

// Deterministic pseudo-random printable garbage.
std::string Garbage(std::mt19937* rng, int length) {
  static constexpr char kChars[] =
      "<>/=\"' \n\tabcxyz%~|()*+?#!ELEMENT:->startype";
  std::string result;
  for (int i = 0; i < length; ++i) {
    result += kChars[(*rng)() % (sizeof(kChars) - 1)];
  }
  return result;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, ParsersNeverCrashOnGarbage) {
  std::mt19937 rng(GetParam() * 2246822519u + 3266489917u);
  for (int round = 0; round < 50; ++round) {
    std::string input = Garbage(&rng, 1 + static_cast<int>(rng() % 120));
    Alphabet alphabet;
    (void)ParseXml(input, &alphabet);
    (void)ParseXmlDocument(input);
    (void)ParseSchema(input);
    (void)ImportXsd(input);
    Alphabet regex_alphabet;
    (void)ParseRegex(input, &regex_alphabet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 10));

TEST(FuzzTest, TruncationsOfValidInputsFailCleanly) {
  const std::string schema =
      "start Lib\n"
      "type Lib : library -> Book*\n"
      "type Book : book -> %\n";
  for (size_t cut = 0; cut < schema.size(); ++cut) {
    (void)ParseSchema(schema.substr(0, cut));  // must not crash
  }
  const std::string xml = "<a x=\"1\"><b/><c/></a>";
  for (size_t cut = 0; cut < xml.size(); ++cut) {
    (void)ParseXmlDocument(xml.substr(0, cut));
  }
}

// Validation (tree replay into the streaming kernel) and the Tree special
// members must all be iterative: a path-shaped document deeper than the
// OS stack limit would otherwise crash in validation or even in the Tree
// destructor.
TEST(DeepDocumentTest, PathTreeDepth150kValidatesWithoutStackOverflow) {
  SchemaBuilder builder;
  builder.AddType("X", "x", "X | Y | %");
  builder.AddType("Y", "y", "%");
  builder.AddStart("X");
  Edtd edtd = ReduceEdtd(builder.Build());
  DfaXsd xsd = DfaXsdFromStEdtd(edtd);
  const int x = xsd.sigma.Find("x");
  const int y = xsd.sigma.Find("y");

  constexpr int kDepth = 150000;
  Word deep_word(kDepth, x);
  deep_word.push_back(y);
  Tree deep = Tree::Unary(deep_word);
  EXPECT_EQ(deep.Depth(), kDepth + 1);
  EXPECT_EQ(deep.NumNodes(), kDepth + 1);
  EXPECT_TRUE(xsd.Accepts(deep));
  EXPECT_TRUE(ValidateWithDiagnostics(xsd, deep).ok);

  // An interior <y> violates its (empty) content model kDepth/2 levels
  // below the root; the walk must descend that far to find it.
  Word broken_word = deep_word;
  broken_word[kDepth / 2] = y;
  Tree broken = Tree::Unary(broken_word);
  EXPECT_FALSE(xsd.Accepts(broken));
  ValidationResult result = ValidateWithDiagnostics(xsd, broken);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(static_cast<int>(result.violation_path.size()), kDepth / 2);
  // `deep` and `broken` are destroyed here; the iterative ~Tree keeps that
  // from recursing kDepth frames deep.
}

// The XML reader feeds the validators at the CLI surface, so it has to
// survive the same depths they do: parsing, DOM-to-tree conversion, and
// XmlElement teardown are all iterative.
TEST(DeepDocumentTest, ParsesDepth150kXmlWithoutStackOverflow) {
  constexpr int kDepth = 150000;
  std::string xml;
  xml.reserve(kDepth * 9 + 8);
  for (int i = 0; i < kDepth; ++i) xml += "<x>";
  xml += "<y/>";
  for (int i = 0; i < kDepth; ++i) xml += "</x>";

  Alphabet alphabet;
  StatusOr<Tree> tree = ParseXml(xml, &alphabet);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Depth(), kDepth + 1);
  EXPECT_EQ(tree->NumNodes(), kDepth + 1);

  StatusOr<XmlElement> document = ParseXmlDocument(xml);
  ASSERT_TRUE(document.ok());

  // Unbalanced nesting must still fail cleanly at depth.
  std::string truncated = xml.substr(0, xml.size() - 4);
  EXPECT_FALSE(ParseXml(truncated, &alphabet).ok());
  // `tree` and `document` are torn down here without recursing.
}

// Non-single-type validation types the tree bottom-up
// (Edtd::PossibleTypes), and that walk must be iterative too: ParseXml
// accepts any depth, so one deep document would otherwise take down the
// process — under `stap serve`, the whole daemon.
TEST(DeepDocumentTest, NonSingleTypeSchemaValidatesDepth150k) {
  // Two <a> types that differ only in which <b> ends the chain, so the
  // type set of every <a> on the path stays {A1, A2} until the leaf.
  constexpr char kSchema[] =
      "start A1 A2\n"
      "type A1 : a -> (A1|B1)?\n"
      "type A2 : a -> (A2|B2)?\n"
      "type B1 : b -> %\n"
      "type B2 : b -> C\n"
      "type C : c -> %\n";
  StatusOr<CompiledSchema> schema = CompileSchema(kSchema, nullptr);
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_FALSE(schema->single_type);

  constexpr int kDepth = 150000;
  auto chain = [&](const std::string& leaf) {
    std::string xml;
    xml.reserve(kDepth * 7 + leaf.size());
    for (int i = 0; i < kDepth; ++i) xml += "<a>";
    xml += leaf;
    for (int i = 0; i < kDepth; ++i) xml += "</a>";
    return xml;
  };
  const std::string valid[] = {chain(""), chain("<b/>"), chain("<b><c/></b>")};
  for (const std::string& xml : valid) {
    DocumentVerdict verdict = ValidateDocument(*schema, xml, nullptr);
    EXPECT_EQ(verdict.kind, DocumentVerdict::Kind::kValid) << verdict.message;
    Alphabet alphabet = schema->edtd.sigma;
    StatusOr<Tree> tree = ParseXml(xml, &alphabet);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(schema->edtd.Accepts(*tree));
  }

  const std::string invalid = chain("<c/>");
  DocumentVerdict verdict = ValidateDocument(*schema, invalid, nullptr);
  EXPECT_EQ(verdict.kind, DocumentVerdict::Kind::kInvalid);
  EXPECT_EQ(verdict.message, "document not in the schema language");
  Alphabet alphabet = schema->edtd.sigma;
  StatusOr<Tree> tree = ParseXml(invalid, &alphabet);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(schema->edtd.Accepts(*tree));
}

}  // namespace
}  // namespace stap
