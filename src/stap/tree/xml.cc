#include "stap/tree/xml.h"

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace stap {

namespace {

// The "C" locale's isspace, isalpha and isalnum, which is what the
// grammar has always meant (nothing in stap changes the locale), inline
// so the byte loops make no library calls.
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool IsAsciiNameStart(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

// Byte -> 2 if a name may start with it, 1 if it may only continue one,
// 0 otherwise.
constexpr std::array<uint8_t, 256> kNameBytes = [] {
  std::array<uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    if (IsAsciiNameStart(c)) {
      table[c] = 2;
    } else if ((c >= '0' && c <= '9') || c == '-' || c == '.' || c == ':') {
      table[c] = 1;
    }
  }
  return table;
}();

bool IsNameStart(char c) {
  return kNameBytes[static_cast<unsigned char>(c)] == 2;
}

bool IsNameChar(char c) {
  return kNameBytes[static_cast<unsigned char>(c)] != 0;
}

}  // namespace

XmlTokenizer::XmlTokenizer(std::string_view input, bool allow_attributes)
    : input_(input), allow_attributes_(allow_attributes) {}

XmlTokenizer::Token XmlTokenizer::Fail(const std::string& message) {
  state_ = State::kError;
  status_ = InvalidArgumentError("XML parse error at offset " +
                                 std::to_string(pos_) + ": " + message);
  return Token::kError;
}

void XmlTokenizer::SkipWhitespace() {
  while (pos_ < input_.size() && IsSpace(input_[pos_])) ++pos_;
}

// Skips whitespace, comments, processing instructions, and the XML
// declaration.
void XmlTokenizer::SkipMisc() {
  while (true) {
    SkipWhitespace();
    // Both forms start "<!" or "<?"; test one byte before the prefixes.
    if (pos_ + 1 >= input_.size() || input_[pos_] != '<' ||
        (input_[pos_ + 1] != '!' && input_[pos_ + 1] != '?')) {
      return;
    }
    if (input_.substr(pos_, 4) == "<!--") {
      size_t end = input_.find("-->", pos_ + 4);
      pos_ = end == std::string_view::npos ? input_.size() : end + 3;
    } else if (input_[pos_ + 1] == '?') {
      size_t end = input_.find("?>", pos_ + 2);
      pos_ = end == std::string_view::npos ? input_.size() : end + 2;
    } else {
      return;
    }
  }
}

bool XmlTokenizer::At(char c) const {
  return pos_ < input_.size() && input_[pos_] == c;
}

// Reads a name into name_; false (with pos_ unmoved) if none starts here.
bool XmlTokenizer::ParseName() {
  if (pos_ >= input_.size() || !IsNameStart(input_[pos_])) return false;
  size_t start = pos_;
  while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
  name_ = input_.substr(start, pos_ - start);
  return true;
}

// '<' and the element name; attributes and the tag's end follow in kInTag.
XmlTokenizer::Token XmlTokenizer::OpenTag() {
  if (!At('<')) return Fail("expected '<'");
  ++pos_;
  if (!ParseName()) return Fail("expected name");
  open_.push_back(name_);
  state_ = State::kInTag;
  return Token::kStart;
}

// Content of the innermost open element: a closing tag or a child.
XmlTokenizer::Token XmlTokenizer::Content() {
  SkipMisc();
  if (pos_ >= input_.size()) return Fail("unexpected end of input");
  if (input_[pos_] != '<') {
    return Fail("text content is not supported by the tree model");
  }
  if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '/') {
    pos_ += 2;
    if (!ParseName()) return Fail("expected name");
    if (name_ != open_.back()) {
      return Fail("mismatched closing tag </" + std::string(name_) + "> for <" +
                  std::string(open_.back()) + ">");
    }
    SkipWhitespace();
    if (!At('>')) return Fail("expected '>' after closing tag name");
    ++pos_;
    return Close();
  }
  return OpenTag();
}

XmlTokenizer::Token XmlTokenizer::Attribute() {
  if (!ParseName()) return Fail("expected name");
  SkipWhitespace();
  if (!At('=')) return Fail("expected '=' after attribute name");
  ++pos_;
  SkipWhitespace();
  if (pos_ >= input_.size() || (input_[pos_] != '"' && input_[pos_] != '\'')) {
    return Fail("expected quoted attribute value");
  }
  char quote = input_[pos_++];
  size_t start = pos_;
  while (pos_ < input_.size() && input_[pos_] != quote) ++pos_;
  if (pos_ >= input_.size()) return Fail("unterminated attribute value");
  value_ = input_.substr(start, pos_ - start);
  ++pos_;  // closing quote
  return Token::kAttribute;
}

XmlTokenizer::Token XmlTokenizer::Close() {
  open_.pop_back();
  state_ = open_.empty() ? State::kEpilog : State::kContent;
  return Token::kEnd;
}

XmlTokenizer::Token XmlTokenizer::Next() {
  switch (state_) {
    case State::kProlog:
      SkipMisc();
      return OpenTag();
    case State::kInTag:
      SkipWhitespace();
      if (pos_ >= input_.size()) return Fail("unexpected end of tag");
      if (input_[pos_] == '>') {
        ++pos_;
        state_ = State::kContent;
        return Content();
      }
      if (input_[pos_] == '/' && pos_ + 1 < input_.size() &&
          input_[pos_ + 1] == '>') {
        pos_ += 2;
        return Close();
      }
      if (!allow_attributes_) {
        return Fail("attributes are not supported by the tree model");
      }
      return Attribute();
    case State::kContent:
      return Content();
    case State::kEpilog:
      SkipMisc();
      if (pos_ != input_.size()) {
        return Fail("trailing content after root element");
      }
      state_ = State::kDone;
      return Token::kDone;
    case State::kDone:
      return Token::kDone;
    case State::kError:
      return Token::kError;
  }
  return Token::kError;
}

namespace {

void SerializeElement(const XmlElement& element, int indent,
                      std::ostringstream& os) {
  struct Frame {
    const XmlElement* element;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{&element, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const XmlElement& e = *frame.element;
    const int depth = indent + static_cast<int>(stack.size()) - 1;
    if (frame.next_child == 0) {
      for (int i = 0; i < depth; ++i) os << "  ";
      os << "<" << e.name;
      for (const XmlAttribute& attribute : e.attributes) {
        os << " " << attribute.name << "=\"" << attribute.value << "\"";
      }
      if (e.children.empty()) {
        os << "/>\n";
        stack.pop_back();
        continue;
      }
      os << ">\n";
    }
    if (frame.next_child == e.children.size()) {
      for (int i = 0; i < depth; ++i) os << "  ";
      os << "</" << e.name << ">\n";
      stack.pop_back();
      continue;
    }
    stack.push_back(Frame{&e.children[frame.next_child++], 0});
  }
}

void SerializeTree(const Tree& tree, const Alphabet& alphabet, int indent,
                   std::ostringstream& os) {
  struct Frame {
    const Tree* node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{&tree, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Tree& node = *frame.node;
    const std::string& name = alphabet.Name(node.label);
    const int depth = indent + static_cast<int>(stack.size()) - 1;
    if (frame.next_child == 0) {
      for (int i = 0; i < depth; ++i) os << "  ";
      if (node.IsLeaf()) {
        os << "<" << name << "/>\n";
        stack.pop_back();
        continue;
      }
      os << "<" << name << ">\n";
    }
    if (frame.next_child == node.children.size()) {
      for (int i = 0; i < depth; ++i) os << "  ";
      os << "</" << name << ">\n";
      stack.pop_back();
      continue;
    }
    stack.push_back(Frame{&node.children[frame.next_child++], 0});
  }
}

}  // namespace

// Same grandchild-hoisting scheme as Tree::~Tree: flatten descendants into
// this node's child list so vector teardown never recurses.
XmlElement::~XmlElement() {
  while (!children.empty()) {
    XmlElement child = std::move(children.back());
    children.pop_back();
    while (!child.children.empty()) {
      children.push_back(std::move(child.children.back()));
      child.children.pop_back();
    }
  }
}

const std::string* XmlElement::FindAttribute(
    std::string_view attribute_name) const {
  for (const XmlAttribute& attribute : attributes) {
    if (attribute.name == attribute_name) return &attribute.value;
  }
  return nullptr;
}

StatusOr<XmlElement> ParseXmlDocument(std::string_view input) {
  XmlTokenizer tokens(input, /*allow_attributes=*/true);
  std::vector<XmlElement> open;
  XmlElement root;
  while (true) {
    switch (tokens.Next()) {
      case XmlTokenizer::Token::kStart:
        open.emplace_back().name = std::string(tokens.name());
        break;
      case XmlTokenizer::Token::kAttribute:
        open.back().attributes.push_back(XmlAttribute{
            std::string(tokens.name()), std::string(tokens.value())});
        break;
      case XmlTokenizer::Token::kEnd: {
        XmlElement closed = std::move(open.back());
        open.pop_back();
        if (open.empty()) {
          root = std::move(closed);
        } else {
          open.back().children.push_back(std::move(closed));
        }
        break;
      }
      case XmlTokenizer::Token::kDone:
        return root;
      case XmlTokenizer::Token::kError:
        return tokens.status();
    }
  }
}

std::string XmlElementToString(const XmlElement& element) {
  std::ostringstream os;
  SerializeElement(element, 0, os);
  return os.str();
}

StatusOr<Tree> ParseXml(std::string_view input, Alphabet* alphabet) {
  XmlTokenizer tokens(input, /*allow_attributes=*/false);
  std::vector<Tree> open;
  Tree root;
  while (true) {
    switch (tokens.Next()) {
      case XmlTokenizer::Token::kStart:
        open.emplace_back(alphabet->Intern(tokens.name()));
        break;
      case XmlTokenizer::Token::kEnd: {
        Tree closed = std::move(open.back());
        open.pop_back();
        if (open.empty()) {
          root = std::move(closed);
        } else {
          open.back().children.push_back(std::move(closed));
        }
        break;
      }
      case XmlTokenizer::Token::kAttribute:  // a parse error here
        break;
      case XmlTokenizer::Token::kDone:
        return root;
      case XmlTokenizer::Token::kError:
        return tokens.status();
    }
  }
}

std::string ToXml(const Tree& tree, const Alphabet& alphabet) {
  std::ostringstream os;
  SerializeTree(tree, alphabet, 0, os);
  return os.str();
}

}  // namespace stap
