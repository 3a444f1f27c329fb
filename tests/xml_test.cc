// Unit tests for the XML-lite reader/writer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stap/tree/xml.h"

namespace stap {
namespace {

TEST(XmlTest, ParsesNestedElements) {
  Alphabet alphabet;
  StatusOr<Tree> tree = ParseXml(
      "<library><book><title/><chapter/></book><book><title/></book>"
      "</library>",
      &alphabet);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->label, alphabet.Find("library"));
  ASSERT_EQ(tree->children.size(), 2u);
  EXPECT_EQ(tree->children[0].children.size(), 2u);
  EXPECT_EQ(tree->children[1].children.size(), 1u);
}

TEST(XmlTest, AcceptsDeclarationCommentsAndWhitespace) {
  Alphabet alphabet;
  StatusOr<Tree> tree = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!-- catalog -->\n"
      "<a>\n  <!-- inner -->\n  <b/>\n</a>\n",
      &alphabet);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->children.size(), 1u);
}

TEST(XmlTest, ExplicitClosingTagsForLeaves) {
  Alphabet alphabet;
  StatusOr<Tree> tree = ParseXml("<a><b></b></a>", &alphabet);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_TRUE(tree->children[0].IsLeaf());
}

TEST(XmlTest, RejectsMalformedDocuments) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseXml("<a><b></a></b>", &alphabet).ok());  // mismatched
  EXPECT_FALSE(ParseXml("<a>", &alphabet).ok());             // unclosed
  EXPECT_FALSE(ParseXml("<a/><b/>", &alphabet).ok());        // two roots
  EXPECT_FALSE(ParseXml("<a x=\"1\"/>", &alphabet).ok());    // attributes
  EXPECT_FALSE(ParseXml("<a>text</a>", &alphabet).ok());     // text
  EXPECT_FALSE(ParseXml("", &alphabet).ok());
}

// Each reader reports a parse error with the byte offset where the
// grammar failed. The attribute DOM reads attributes the tree rejects, so
// the two differ only on inputs with attributes.
TEST(XmlTest, ParseErrorsNameTheirOffset) {
  constexpr char kNoAttributes[] =
      "offset 3: attributes are not supported by the tree model";
  struct Case {
    const char* input;
    const char* tree_error;
    const char* dom_error;  // nullptr: as tree_error
  };
  const Case cases[] = {
      {"", "offset 0: expected '<'", nullptr},
      {"<", "offset 1: expected name", nullptr},
      {"<a", "offset 2: unexpected end of tag", nullptr},
      {"<a>", "offset 3: unexpected end of input", nullptr},
      {"<a/><b/>", "offset 4: trailing content after root element", nullptr},
      {"<a></b>", "offset 6: mismatched closing tag </b> for <a>", nullptr},
      {"<a></a", "offset 6: expected '>' after closing tag name", nullptr},
      {"<a></", "offset 5: expected name", nullptr},
      {"<!DOCTYPE a><a/>", "offset 1: expected name", nullptr},
      {"<a>&amp;</a>",
       "offset 3: text content is not supported by the tree model", nullptr},
      {"<a x=\"1\" y='2'>text</a>", kNoAttributes,
       "offset 15: text content is not supported by the tree model"},
      {"<a x=1/>", kNoAttributes, "offset 5: expected quoted attribute value"},
      {"<a x/>", kNoAttributes, "offset 4: expected '=' after attribute name"},
      {"<a x='1/>", kNoAttributes, "offset 9: unterminated attribute value"},
      {"<a =/>", kNoAttributes, "offset 3: expected name"},
  };
  for (const Case& c : cases) {
    Alphabet alphabet;
    StatusOr<Tree> tree = ParseXml(c.input, &alphabet);
    ASSERT_FALSE(tree.ok()) << c.input;
    EXPECT_EQ(tree.status().message(),
              std::string("XML parse error at ") + c.tree_error)
        << c.input;
    StatusOr<XmlElement> dom = ParseXmlDocument(c.input);
    ASSERT_FALSE(dom.ok()) << c.input;
    EXPECT_EQ(dom.status().message(),
              std::string("XML parse error at ") +
                  (c.dom_error != nullptr ? c.dom_error : c.tree_error))
        << c.input;
  }
}

TEST(XmlTokenizerTest, EmitsStartAttributeAndEndTokens) {
  using Token = XmlTokenizer::Token;
  XmlTokenizer tokens(
      "<?xml version=\"1.0\"?><a x='1' y=\"\"><b/><!-- c --><c></c></a>\n",
      /*allow_attributes=*/true);
  std::vector<std::string> seen;
  Token token;
  while ((token = tokens.Next()) != Token::kDone) {
    ASSERT_NE(token, Token::kError) << tokens.status();
    switch (token) {
      case Token::kStart:
        seen.push_back("<" + std::string(tokens.name()));
        break;
      case Token::kAttribute:
        seen.push_back(std::string(tokens.name()) + "=" +
                       std::string(tokens.value()));
        break;
      default:
        seen.push_back("/");
        break;
    }
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"<a", "x=1", "y=", "<b", "/",
                                            "<c", "/", "/"}));
  EXPECT_EQ(tokens.Next(), Token::kDone);  // sticky
}

TEST(XmlTest, RoundTripsThroughSerializer) {
  Alphabet alphabet;
  const char* source = "<a><b><c/><c/></b><d/></a>";
  StatusOr<Tree> tree = ParseXml(source, &alphabet);
  ASSERT_TRUE(tree.ok());
  std::string serialized = ToXml(*tree, alphabet);
  StatusOr<Tree> reparsed = ParseXml(serialized, &alphabet);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*tree, *reparsed);
}

TEST(XmlTest, SerializerUsesSelfClosingLeaves) {
  Alphabet alphabet({"a", "b"});
  Tree tree(0, {Tree(1)});
  EXPECT_EQ(ToXml(tree, alphabet), "<a>\n  <b/>\n</a>\n");
  EXPECT_EQ(ToXml(Tree(1), alphabet), "<b/>\n");
}

}  // namespace
}  // namespace stap
