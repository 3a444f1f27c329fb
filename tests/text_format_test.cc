// Unit tests for the textual schema format and the schema builder.
#include <gtest/gtest.h>

#include "stap/approx/inclusion.h"
#include "stap/schema/builder.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

constexpr const char* kLibrary = R"(
# A small library schema.
start Lib
type Lib     : library -> Book*
type Book    : book    -> Title Chapter+
type Title   : title   -> %
type Chapter : chapter -> %
)";

TEST(TextFormatTest, ParsesDeclarations) {
  StatusOr<Edtd> schema = ParseSchema(kLibrary);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->num_types(), 4);
  EXPECT_EQ(schema->start_types.size(), 1u);
  EXPECT_EQ(schema->types.Name(schema->start_types[0]), "Lib");
  EXPECT_EQ(schema->sigma.Find("library"), schema->mu[0]);

  int lib = schema->sigma.Find("library"), book = schema->sigma.Find("book"),
      title = schema->sigma.Find("title"),
      chapter = schema->sigma.Find("chapter");
  Tree ok(lib, {Tree(book, {Tree(title), Tree(chapter)})});
  EXPECT_TRUE(schema->Accepts(ok));
  Tree bad(lib, {Tree(book, {Tree(title)})});
  EXPECT_FALSE(schema->Accepts(bad));
}

TEST(TextFormatTest, ForwardReferencesAllowed) {
  StatusOr<Edtd> schema = ParseSchema(
      "start A\n"
      "type A : a -> B\n"
      "type B : b -> %\n");
  ASSERT_TRUE(schema.ok()) << schema.status();
}

TEST(TextFormatTest, ReportsErrors) {
  EXPECT_FALSE(ParseSchema("type A a -> %\n").ok());   // missing ':'
  EXPECT_FALSE(ParseSchema("type A : a %\n").ok());    // missing '->'
  EXPECT_FALSE(ParseSchema("start Missing\n").ok());   // unknown start
  EXPECT_FALSE(ParseSchema("bogus directive\n").ok());
  EXPECT_FALSE(ParseSchema("type A : a -> Unknown\n").ok());
  EXPECT_FALSE(
      ParseSchema("type A : a -> %\ntype A : b -> %\n").ok());  // dup
}

TEST(TextFormatTest, RoundTripPreservesLanguage) {
  StatusOr<Edtd> schema = ParseSchema(kLibrary);
  ASSERT_TRUE(schema.ok());
  std::string text = SchemaToText(*schema);
  StatusOr<Edtd> reparsed = ParseSchema(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  ASSERT_TRUE(IsSingleType(*schema));
  EXPECT_TRUE(*SingleTypeEquivalent(*schema, *reparsed)) << text;
}

TEST(SchemaBuilderTest, MatchesTextFormatSemantics) {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book*");
  builder.AddType("Book", "book", "Title Chapter+");
  builder.AddType("Title", "title", "%");
  builder.AddType("Chapter", "chapter", "%");
  builder.AddStart("Lib");
  Edtd built = builder.Build();
  StatusOr<Edtd> parsed = ParseSchema(kLibrary);
  ASSERT_TRUE(parsed.ok());
  for (const Tree& tree : EnumerateTrees({3, 2, 4})) {
    EXPECT_EQ(built.Accepts(tree), parsed->Accepts(tree));
  }
}

}  // namespace
}  // namespace stap
