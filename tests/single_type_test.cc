// Unit tests for DFA-based XSDs: Proposition 2.9 conversions and one-pass
// validation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stap/gen/families.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/validate.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

Edtd LibrarySchema() {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book*");
  builder.AddType("Book", "book", "Title Chapter+");
  builder.AddType("Title", "title", "%");
  builder.AddType("Chapter", "chapter", "Section*");
  builder.AddType("Section", "section", "%");
  builder.AddStart("Lib");
  return builder.Build();
}

TEST(DfaXsdTest, ConversionRoundTripPreservesLanguage) {
  Edtd edtd = ReduceEdtd(LibrarySchema());
  ASSERT_TRUE(IsSingleType(edtd));
  DfaXsd xsd = DfaXsdFromStEdtd(edtd);
  Edtd back = StEdtdFromDfaXsd(xsd);
  for (const Tree& tree : EnumerateTrees({3, 2, 5})) {
    bool expected = edtd.Accepts(tree);
    EXPECT_EQ(xsd.Accepts(tree), expected) << tree.ToString(edtd.sigma);
    EXPECT_EQ(back.Accepts(tree), expected) << tree.ToString(edtd.sigma);
  }
}

TEST(DfaXsdTest, TypeSizeMatchesTypeCount) {
  Edtd edtd = ReduceEdtd(LibrarySchema());
  DfaXsd xsd = DfaXsdFromStEdtd(edtd);
  EXPECT_EQ(xsd.type_size(), edtd.num_types());
}

TEST(DfaXsdTest, ContextSensitiveTyping) {
  // The same label validates differently under different ancestors — the
  // defining power of XSD over DTD.
  SchemaBuilder builder;
  builder.AddType("Root", "a", "Left Right");
  builder.AddType("Left", "l", "X1");
  builder.AddType("Right", "r", "X2");
  builder.AddType("X1", "x", "%");      // x under l must be a leaf
  builder.AddType("X2", "x", "X2?");    // x under r may nest
  builder.AddStart("Root");
  Edtd edtd = ReduceEdtd(builder.Build());
  ASSERT_TRUE(IsSingleType(edtd));
  DfaXsd xsd = DfaXsdFromStEdtd(edtd);
  Alphabet& s = xsd.sigma;
  int a = s.Find("a"), l = s.Find("l"), r = s.Find("r"), x = s.Find("x");
  Tree nested_right(a, {Tree(l, {Tree(x)}),
                        Tree(r, {Tree(x, {Tree(x)})})});
  EXPECT_TRUE(xsd.Accepts(nested_right));
  Tree nested_left(a, {Tree(l, {Tree(x, {Tree(x)})}),
                       Tree(r, {Tree(x)})});
  EXPECT_FALSE(xsd.Accepts(nested_left));
}

TEST(DfaXsdTest, SizeAndWellFormedness) {
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(LibrarySchema()));
  xsd.CheckWellFormed();
  EXPECT_GT(xsd.Size(), xsd.type_size());
}

TEST(DfaXsdTest, NonZeroInitialStateValidates) {
  // A hand-built XSD whose q_init is the highest-numbered state instead of
  // state 0. Every validator must route the root lookup through
  // automaton.initial(); the old code hard-coded state 0 and either
  // aborted in CheckWellFormed or rejected every document.
  DfaXsd xsd;
  xsd.sigma = Alphabet({"a", "b"});
  const int a = 0, b = 1;
  Dfa automaton(3, 2);
  automaton.SetInitial(2);
  automaton.SetTransition(2, a, 1);  // root <a> is typed by state 1
  automaton.SetTransition(1, b, 0);  // <b> under <a> is typed by state 0
  xsd.automaton = automaton;
  xsd.state_label = {b, a, kNoSymbol};
  xsd.content.resize(3, Dfa::EpsilonOnly(2));
  Dfa b_optional(2, 2);  // content of <a>: "b?"
  b_optional.SetTransition(0, b, 1);
  b_optional.SetFinal(0);
  b_optional.SetFinal(1);
  xsd.content[1] = b_optional;
  xsd.start_symbols = {a};
  xsd.CheckWellFormed();

  Tree good(a, {Tree(b)});
  Tree bad(a, {Tree(a)});
  EXPECT_TRUE(xsd.Accepts(good));
  EXPECT_TRUE(xsd.Accepts(Tree(a)));
  EXPECT_FALSE(xsd.Accepts(bad));
  EXPECT_FALSE(xsd.Accepts(Tree(b)));

  EXPECT_TRUE(ValidateWithDiagnostics(xsd, good).ok);
  EXPECT_FALSE(ValidateWithDiagnostics(xsd, bad).ok);

  // The EDTD conversion handles the shifted state numbering too.
  Edtd back = StEdtdFromDfaXsd(xsd);
  EXPECT_TRUE(back.Accepts(good));
  EXPECT_FALSE(back.Accepts(bad));
}

TEST(ValidateTest, ReportsViolationPathAndMessage) {
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(LibrarySchema()));
  Alphabet& s = xsd.sigma;
  int library = s.Find("library"), book = s.Find("book"),
      title = s.Find("title"), chapter = s.Find("chapter");

  Tree ok(library, {Tree(book, {Tree(title), Tree(chapter)})});
  EXPECT_TRUE(ValidateWithDiagnostics(xsd, ok).ok);

  // book missing its chapters.
  Tree missing(library, {Tree(book, {Tree(title)})});
  ValidationResult result = ValidateWithDiagnostics(xsd, missing);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.violation_path, TreePath{0});
  EXPECT_NE(result.message.find("book"), std::string::npos);

  // Wrong root.
  ValidationResult wrong_root = ValidateWithDiagnostics(xsd, Tree(book));
  EXPECT_FALSE(wrong_root.ok);
  EXPECT_NE(wrong_root.message.find("start"), std::string::npos);
}

TEST(ValidateTest, TruncatesLongChildStringsInDiagnostics) {
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(LibrarySchema()));
  Alphabet& s = xsd.sigma;
  int library = s.Find("library"), book = s.Find("book"),
      chapter = s.Find("chapter");

  // 40 chapters but no title: the content-model failure at <book> would
  // otherwise echo all 40 symbols; only 32 are shown.
  std::vector<Tree> chapters(40, Tree(chapter));
  Tree wide(library, {Tree(book, std::move(chapters))});
  ValidationResult result = ValidateWithDiagnostics(xsd, wide);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation_path, TreePath{0});
  EXPECT_NE(result.message.find("... (+8 more; 40 symbols total)"),
            std::string::npos)
      << result.message;
}

TEST(ValidateTest, ReportsFirstViolationInDocumentOrder) {
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(LibrarySchema()));
  Alphabet& s = xsd.sigma;
  int library = s.Find("library"), book = s.Find("book"),
      title = s.Find("title"), chapter = s.Find("chapter");

  // Two violations: <library>'s child string [book title] fails Book*,
  // and <chapter> holds a <title>. The kernel meets the <title> inside
  // <chapter> first (the content run of <library> only dies at its second
  // child), so that is the one reported, not the pre-order-first one.
  Tree two(library, {Tree(book, {Tree(title), Tree(chapter, {Tree(title)})}),
                     Tree(title)});
  ValidationResult result = ValidateWithDiagnostics(xsd, two);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation_path, (TreePath{0, 1}));
  EXPECT_EQ(result.message,
            "child string [title] of element <chapter> does not match its "
            "content model");
}

TEST(ValidateTest, MissingRequiredChildIsCaughtAtTheClosingTag) {
  SchemaBuilder builder;
  builder.AddType("P", "p", "A B C");
  builder.AddType("A", "a", "%");
  builder.AddType("B", "b", "%");
  builder.AddType("C", "c", "%");
  builder.AddStart("P");
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
  Alphabet& s = xsd.sigma;
  // Every prefix of [a b] is a live run of "A B C"; only the closing tag
  // of <p> shows that <c> is missing. The message lists the whole string.
  Tree partial(s.Find("p"), {Tree(s.Find("a")), Tree(s.Find("b"))});
  ValidationResult result = ValidateWithDiagnostics(xsd, partial);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation_path, TreePath{});
  EXPECT_EQ(result.message,
            "child string [a b] of element <p> does not match its content "
            "model");
}

TEST(ValidateTest, ReportsElementsUndeclaredInTheirContext) {
  // Hand-built: the content of <a> admits a <b> (and the start symbols
  // admit a root <b>), but the XSD automaton types neither.
  DfaXsd xsd;
  xsd.sigma = Alphabet({"a", "b"});
  const int a = 0, b = 1;
  Dfa automaton(2, 2);
  automaton.SetInitial(0);
  automaton.SetTransition(0, a, 1);
  xsd.automaton = automaton;
  xsd.state_label = {kNoSymbol, a};
  Dfa b_optional(2, 2);  // content of <a>: "b?"
  b_optional.SetTransition(0, b, 1);
  b_optional.SetFinal(0);
  b_optional.SetFinal(1);
  xsd.content = {Dfa::EpsilonOnly(2), b_optional};
  xsd.start_symbols = {a, b};
  xsd.CheckWellFormed();

  EXPECT_TRUE(ValidateWithDiagnostics(xsd, Tree(a)).ok);
  ValidationResult child = ValidateWithDiagnostics(xsd, Tree(a, {Tree(b)}));
  ASSERT_FALSE(child.ok);
  EXPECT_EQ(child.violation_path, TreePath{0});
  EXPECT_EQ(child.message, "element <b> is not declared in this context");
  EXPECT_FALSE(xsd.Accepts(Tree(a, {Tree(b)})));
  // A hand-built tree may carry a label outside Σ; it is named by id.
  ValidationResult foreign = ValidateWithDiagnostics(xsd, Tree(a, {Tree(7)}));
  ASSERT_FALSE(foreign.ok);
  EXPECT_EQ(foreign.violation_path, TreePath{0});
  EXPECT_EQ(foreign.message, "element <#7> is not declared in this context");

  ValidationResult root = ValidateWithDiagnostics(xsd, Tree(b));
  ASSERT_FALSE(root.ok);
  EXPECT_EQ(root.violation_path, TreePath{});
  EXPECT_EQ(root.message, "root element has no declaration");
}

TEST(ValidateTest, AgreesWithAcceptsOnEnumeration) {
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(LibrarySchema()));
  for (const Tree& tree : EnumerateTrees({3, 2, 5})) {
    EXPECT_EQ(ValidateWithDiagnostics(xsd, tree).ok, xsd.Accepts(tree));
  }
}

// Paper families are single-type and the conversions stay faithful.
class FamilyConversionTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyConversionTest, Theorem36FamilyRoundTrips) {
  auto [d1, d2] = Theorem36Family(GetParam());
  for (Edtd* schema : {&d1, &d2}) {
    Edtd reduced = ReduceEdtd(*schema);
    ASSERT_TRUE(IsSingleType(reduced));
    DfaXsd xsd = DfaXsdFromStEdtd(reduced);
    for (const Tree& tree : EnumerateTrees({4, 1, 2})) {
      EXPECT_EQ(xsd.Accepts(tree), schema->Accepts(tree));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FamilyConversionTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace stap
