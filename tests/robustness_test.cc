// Robustness tests: parsers and renderers must reject malformed input
// with Status errors (never crash), and renderer output must stay
// re-parseable under mutation-free round trips.
#include <gtest/gtest.h>
#include <sys/resource.h>

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
// survive the same depths they do: tokenizing, tree and DOM building, and
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

// ValidateDocument streams the document's bytes into the validator and
// builds no tree, so validating a 32 MB document needs memory for its
// depth, not its size: peak RSS (already covering the document itself)
// must grow by far less than the document.
TEST(WideDocumentTest, ValidatesFromBytesInBoundedMemory) {
  StatusOr<CompiledSchema> schema = CompileSchema(
      "start Lib\n"
      "type Lib : library -> Book* End\n"
      "type Book : book -> %\n"
      "type End : end -> %\n",
      nullptr);
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(schema->single_type);
  constexpr size_t kBytes = size_t{32} << 20;
  std::string xml;
  xml.reserve(kBytes + 64);
  xml += "<library>";
  int64_t books = 0;
  while (xml.size() < kBytes) {
    xml += "<book/>";
    ++books;
  }
  const size_t body_end = xml.size();
  xml += "<end/></library>";
  std::string truncated = xml.substr(0, body_end);  // no <end/>
  truncated += "</library>";

  auto peak_rss_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_maxrss);
  };
  const int64_t before_kb = peak_rss_kb();
  const DocumentVerdict valid = ValidateDocument(*schema, xml, nullptr);
  const DocumentVerdict invalid = ValidateDocument(*schema, truncated, nullptr);
  const int64_t grown_kb = peak_rss_kb() - before_kb;

  EXPECT_EQ(valid.kind, DocumentVerdict::Kind::kValid) << valid.message;
  EXPECT_EQ(invalid.kind, DocumentVerdict::Kind::kInvalid);
  EXPECT_EQ(invalid.message,
            "child string [book book book book book book book book book book "
            "book book book book book book book book book book book book "
            "book book book book book book book book book book ... (+" +
                std::to_string(books - 32) + " more; " +
                std::to_string(books) +
                " symbols total)] of element <library> does not match its "
                "content model");
  EXPECT_LT(grown_kb, 16 * 1024) << "peak RSS grew by " << grown_kb << " KB";
}

}  // namespace
}  // namespace stap
