// Minimal XML reader and writer.
//
// One pull tokenizer (XmlTokenizer) reads the bytes; three consumers
// build on its events:
//  * XmlElement — a small DOM with attributes (used by the W3C-style XSD
//    import/export in schema/xsd_io.h);
//  * Tree — the paper's element-only abstraction (labels only);
//  * ValidateDocument (io/batch_validate.h), which feeds the events to a
//    validator and builds neither.
// Text content, CDATA, entities, namespaces-as-semantics, and DOCTYPE are
// outside the model and rejected with descriptive errors; comments,
// processing instructions, and the XML declaration are skipped.
#ifndef STAP_TREE_XML_H_
#define STAP_TREE_XML_H_

#include <string>
#include <string_view>
#include <vector>

#include "stap/base/status.h"
#include "stap/tree/tree.h"

namespace stap {

// Pull tokenizer over one XML document. Each Next() returns the next
// token; names and values are views into the input, so tokenizing
// allocates nothing beyond a stack of open names. A parse error is
// reported as kError with the status ParseXml would return: "XML parse
// error at offset N: ...", with N the byte offset where the grammar
// failed. Well-formedness (one root, matching closing tags) is checked
// here, so consumers see properly nested start/end tokens.
class XmlTokenizer {
 public:
  enum class Token {
    kStart,      // an element opens; name() is its name
    kAttribute,  // an attribute of the element just opened
    kEnd,        // the innermost open element closes
    kDone,       // the document ended well-formed (sticky)
    kError,      // parse error, see status() (sticky)
  };

  // With `allow_attributes` false an attribute is a parse error ("the
  // tree model has no place for them").
  XmlTokenizer(std::string_view input, bool allow_attributes);

  Token Next();

  // kStart: the element name. kAttribute: the attribute name.
  std::string_view name() const { return name_; }
  // kAttribute: the value between the quotes, unescaped.
  std::string_view value() const { return value_; }
  // kError: the parse error.
  const Status& status() const { return status_; }

 private:
  enum class State { kProlog, kInTag, kContent, kEpilog, kDone, kError };

  Token Fail(const std::string& message);
  void SkipWhitespace();
  void SkipMisc();
  bool At(char c) const;
  bool ParseName();
  Token OpenTag();
  Token Content();
  Token Attribute();
  Token Close();

  std::string_view input_;
  bool allow_attributes_;
  size_t pos_ = 0;
  State state_ = State::kProlog;
  std::vector<std::string_view> open_;
  std::string_view name_;
  std::string_view value_;
  Status status_;
};

struct XmlAttribute {
  std::string name;
  std::string value;
};

struct XmlElement {
  std::string name;
  std::vector<XmlAttribute> attributes;
  std::vector<XmlElement> children;

  // Iterative teardown: the implicit destructor recurses through
  // `children` and overflows the call stack on deeply nested documents.
  XmlElement() = default;
  ~XmlElement();
  XmlElement(const XmlElement&) = default;
  XmlElement(XmlElement&&) noexcept = default;
  XmlElement& operator=(const XmlElement&) = default;
  XmlElement& operator=(XmlElement&&) noexcept = default;

  // The attribute's value, or nullptr if absent.
  const std::string* FindAttribute(std::string_view attribute_name) const;
};

// Parses one XML document into a DOM (attributes allowed).
StatusOr<XmlElement> ParseXmlDocument(std::string_view input);

// Serializes a DOM with 2-space indentation.
std::string XmlElementToString(const XmlElement& element);

// Parses one XML document into a tree; element names are interned into
// `alphabet` in document order as they are read, so after a parse error
// it may hold names from the part before it. Attributes are rejected
// (the tree model has no place for them); use ParseXmlDocument when they
// must be read.
StatusOr<Tree> ParseXml(std::string_view input, Alphabet* alphabet);

// Serializes with 2-space indentation and self-closing leaf tags.
std::string ToXml(const Tree& tree, const Alphabet& alphabet);

}  // namespace stap

#endif  // STAP_TREE_XML_H_
