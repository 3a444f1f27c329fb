// Tests for DTD import/export (schema/dtd_io.h).
#include <gtest/gtest.h>

#include "stap/approx/inclusion.h"
#include "stap/schema/dtd_io.h"
#include "stap/schema/edtd.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

constexpr const char* kLibraryDtd = R"(
<!-- A classic library DTD. -->
<!ELEMENT library (book)*>
<!ELEMENT book (title, chapter+)>
<!ELEMENT title EMPTY>
<!ELEMENT chapter (section | title)?>
<!ELEMENT section EMPTY>
)";

TEST(DtdIoTest, ParsesDeclarations) {
  StatusOr<Dtd> dtd = ParseDtd(kLibraryDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  Alphabet& s = dtd->sigma;
  int library = s.Find("library"), book = s.Find("book"),
      title = s.Find("title"), chapter = s.Find("chapter"),
      section = s.Find("section");
  EXPECT_EQ(dtd->start_symbols, std::vector<int>{library});

  Tree good(library, {Tree(book, {Tree(title), Tree(chapter),
                                  Tree(chapter, {Tree(section)})})});
  EXPECT_TRUE(dtd->Accepts(good));
  Tree empty_lib(library);
  EXPECT_TRUE(dtd->Accepts(empty_lib));
  Tree bad(library, {Tree(book, {Tree(chapter)})});  // missing title
  EXPECT_FALSE(dtd->Accepts(bad));
}

TEST(DtdIoTest, RootOverride) {
  StatusOr<Dtd> dtd = ParseDtd(kLibraryDtd, "book");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  int book = dtd->sigma.Find("book"), title = dtd->sigma.Find("title"),
      chapter = dtd->sigma.Find("chapter");
  EXPECT_TRUE(dtd->Accepts(Tree(book, {Tree(title), Tree(chapter)})));
  EXPECT_FALSE(dtd->Accepts(Tree(dtd->sigma.Find("library"))));
}

TEST(DtdIoTest, AnyContent) {
  StatusOr<Dtd> dtd = ParseDtd(
      "<!ELEMENT a ANY>\n<!ELEMENT b EMPTY>\n");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  int a = dtd->sigma.Find("a"), b = dtd->sigma.Find("b");
  EXPECT_TRUE(dtd->Accepts(Tree(a)));
  EXPECT_TRUE(dtd->Accepts(Tree(a, {Tree(b), Tree(a), Tree(b)})));
  EXPECT_FALSE(dtd->Accepts(Tree(a, {Tree(b, {Tree(b)})})));
}

TEST(DtdIoTest, ErrorsAreDescriptive) {
  EXPECT_FALSE(ParseDtd("").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT a (b)>").ok());  // b never declared
  EXPECT_FALSE(ParseDtd("<!ELEMENT a (#PCDATA)>").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT a (b, c | d)>"
                        "<!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
                        "<!ELEMENT d EMPTY>").ok());  // mixed separators
  EXPECT_FALSE(
      ParseDtd("<!ELEMENT a EMPTY><!ELEMENT a EMPTY>").ok());  // duplicate
  EXPECT_FALSE(ParseDtd(kLibraryDtd, "nosuch").ok());
}

TEST(DtdIoTest, RoundTripPreservesLanguage) {
  StatusOr<Dtd> dtd = ParseDtd(kLibraryDtd);
  ASSERT_TRUE(dtd.ok());
  std::string rendered = DtdToString(*dtd);
  StatusOr<Dtd> reparsed = ParseDtd(rendered, "library");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << rendered;
  Edtd original = Edtd::FromDtd(*dtd);
  Edtd back = Edtd::FromDtd(*reparsed);
  ASSERT_TRUE(IsSingleType(original));
  EXPECT_TRUE(*SingleTypeEquivalent(original, back)) << rendered;
}

TEST(DtdIoTest, DtdsFeedTheApproximationPipeline) {
  // DTDs are (degenerate) single-type EDTDs; the taxonomy in action.
  StatusOr<Dtd> dtd = ParseDtd(kLibraryDtd);
  ASSERT_TRUE(dtd.ok());
  Edtd edtd = Edtd::FromDtd(*dtd);
  EXPECT_TRUE(IsSingleType(edtd));
  for (const Tree& tree : EnumerateTrees({3, 2, dtd->num_symbols()})) {
    EXPECT_EQ(dtd->Accepts(tree), edtd.Accepts(tree));
  }
}

}  // namespace
}  // namespace stap
