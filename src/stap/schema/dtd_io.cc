#include "stap/schema/dtd_io.h"

#include <cctype>
#include <sstream>
#include <vector>

#include "stap/regex/ast.h"
#include "stap/regex/from_dfa.h"
#include "stap/regex/glushkov.h"

namespace stap {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':';
}

// Parses DTD content particles: `(a, (b | c)*, d?)`, names, EMPTY, ANY.
// Names are *deferred*: symbols ids are interned on sight, and the
// expressions compiled once the alphabet is complete.
class DtdParser {
 public:
  explicit DtdParser(std::string_view input) : input_(input) {}

  StatusOr<Dtd> Parse(std::string_view root) {
    std::vector<std::pair<int, RegexPtr>> rules;  // symbol -> expression
    std::vector<bool> any_content;                // parallel: ANY rules
    while (true) {
      SkipMisc();
      if (pos_ >= input_.size()) break;
      if (!Consume("<!ELEMENT")) {
        return Error("expected <!ELEMENT declaration");
      }
      SkipSpace();
      StatusOr<std::string> name = ParseName();
      if (!name.ok()) return name.status();
      int symbol = alphabet_.Intern(*name);
      SkipSpace();
      bool is_any = false;
      StatusOr<RegexPtr> content = ParseContent(&is_any);
      if (!content.ok()) return content.status();
      SkipSpace();
      if (!Consume(">")) return Error("expected '>' closing the declaration");
      rules.emplace_back(symbol, *content);
      any_content.push_back(is_any);
      if (first_symbol_ < 0) first_symbol_ = symbol;
    }
    if (rules.empty()) return Error("no element declarations found");

    Dtd dtd = Dtd::LeafOnly(alphabet_);
    std::vector<bool> declared(alphabet_.size(), false);
    for (size_t i = 0; i < rules.size(); ++i) {
      auto [symbol, regex] = rules[i];
      if (declared[symbol]) {
        return InvalidArgumentError("duplicate declaration of '" +
                                    alphabet_.Name(symbol) + "'");
      }
      declared[symbol] = true;
      if (any_content[i]) {
        dtd.content[symbol] = Dfa::AllWords(alphabet_.size());
      } else {
        dtd.content[symbol] = *RegexToDfa(*regex, alphabet_.size());
      }
    }
    for (int a = 0; a < alphabet_.size(); ++a) {
      if (!declared[a]) {
        return InvalidArgumentError("element '" + alphabet_.Name(a) +
                                    "' is referenced but never declared");
      }
    }
    int start = root.empty() ? first_symbol_ : alphabet_.Find(root);
    if (start == kNoSymbol) {
      return InvalidArgumentError("unknown root element '" +
                                  std::string(root) + "'");
    }
    dtd.start_symbols = {start};
    return dtd;
  }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError("DTD parse error at offset " +
                                std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  void SkipMisc() {
    while (true) {
      SkipSpace();
      if (input_.substr(pos_, 4) == "<!--") {
        size_t end = input_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
      } else {
        return;
      }
    }
  }

  bool Consume(std::string_view token) {
    if (input_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  StatusOr<std::string> ParseName() {
    if (pos_ >= input_.size() || !IsNameStart(input_[pos_])) {
      return Error("expected element name");
    }
    size_t start = pos_;
    while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  StatusOr<RegexPtr> ParseContent(bool* is_any) {
    *is_any = false;
    if (Consume("EMPTY")) return Regex::Epsilon();
    if (Consume("ANY")) {
      *is_any = true;
      return Regex::Epsilon();  // placeholder; replaced by AllWords
    }
    if (input_.substr(pos_, 1) != "(") {
      return Error("expected EMPTY, ANY, or '('");
    }
    return ParseGroup();
  }

  // group := '(' particle (sep particle)* ')' suffix*, sep consistent.
  StatusOr<RegexPtr> ParseGroup() {
    if (!Consume("(")) return Error("expected '('");
    SkipSpace();
    if (input_.substr(pos_, 7) == "#PCDATA") {
      return Error("#PCDATA / mixed content is outside the tree model");
    }
    std::vector<RegexPtr> parts;
    char separator = '\0';
    while (true) {
      StatusOr<RegexPtr> part = ParseParticle();
      if (!part.ok()) return part;
      parts.push_back(*part);
      SkipSpace();
      if (Consume(")")) break;
      char c = pos_ < input_.size() ? input_[pos_] : '\0';
      if (c != ',' && c != '|') {
        return Error("expected ',', '|', or ')' in content group");
      }
      if (separator != '\0' && c != separator) {
        return Error("mixed ',' and '|' in one group; parenthesize");
      }
      separator = c;
      ++pos_;
      SkipSpace();
    }
    RegexPtr group = separator == '|' ? Regex::Union(std::move(parts))
                                      : Regex::Concat(std::move(parts));
    return ApplySuffix(std::move(group));
  }

  StatusOr<RegexPtr> ParseParticle() {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == '(') return ParseGroup();
    StatusOr<std::string> name = ParseName();
    if (!name.ok()) return name.status();
    return ApplySuffix(Regex::Symbol(alphabet_.Intern(*name)));
  }

  RegexPtr ApplySuffix(RegexPtr regex) {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '*') {
        regex = Regex::Star(std::move(regex));
      } else if (c == '+') {
        regex = Regex::Plus(std::move(regex));
      } else if (c == '?') {
        regex = Regex::Optional(std::move(regex));
      } else {
        break;
      }
      ++pos_;
    }
    return regex;
  }

  std::string_view input_;
  size_t pos_ = 0;
  Alphabet alphabet_;
  int first_symbol_ = -1;
};

}  // namespace

StatusOr<Dtd> ParseDtd(std::string_view input, std::string_view root) {
  return DtdParser(input).Parse(root);
}

namespace {

// DTD has no ε particle; rewrite the expression so ε only appears as the
// whole content (EMPTY) — ε-in-union becomes `?`, ε-in-concat drops out.
// Returns nullptr to denote ε.
RegexPtr NormalizeForDtd(const Regex& regex) {
  switch (regex.kind()) {
    case RegexKind::kEpsilon:
    case RegexKind::kEmptySet:  // only for unreduced inputs; degrades to EMPTY
      return nullptr;
    case RegexKind::kSymbol:
      return Regex::Symbol(regex.symbol());
    case RegexKind::kConcat: {
      std::vector<RegexPtr> parts;
      for (const RegexPtr& child : regex.children()) {
        RegexPtr part = NormalizeForDtd(*child);
        if (part != nullptr) parts.push_back(std::move(part));
      }
      if (parts.empty()) return nullptr;
      return Regex::Concat(std::move(parts));
    }
    case RegexKind::kUnion: {
      std::vector<RegexPtr> parts;
      bool nullable = false;
      for (const RegexPtr& child : regex.children()) {
        RegexPtr part = NormalizeForDtd(*child);
        if (part == nullptr) {
          nullable = true;
        } else {
          parts.push_back(std::move(part));
        }
      }
      if (parts.empty()) return nullptr;
      RegexPtr result = Regex::Union(std::move(parts));
      return nullable ? Regex::Optional(std::move(result)) : result;
    }
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOptional: {
      RegexPtr child = NormalizeForDtd(*regex.children()[0]);
      if (child == nullptr) return nullptr;
      if (regex.kind() == RegexKind::kStar) return Regex::Star(child);
      if (regex.kind() == RegexKind::kPlus) return Regex::Plus(child);
      return Regex::Optional(child);
    }
    case RegexKind::kRepeat: {
      // DTD content particles have no counted repetition; expand
      // r{n,m} = r^n·(r?)^{m-n} and r{n,} = r^{n-1}·r+.
      RegexPtr child = NormalizeForDtd(*regex.children()[0]);
      if (child == nullptr) return nullptr;
      const int min = regex.repeat_min();
      const bool unbounded = regex.repeat_max() == Regex::kUnboundedRepeat;
      const int copies = unbounded ? min : regex.repeat_max();
      std::vector<RegexPtr> parts;
      parts.reserve(copies);
      for (int i = 0; i < copies; ++i) {
        if (unbounded && i == copies - 1) {
          parts.push_back(Regex::Plus(child));
        } else if (i >= min) {
          parts.push_back(Regex::Optional(child));
        } else {
          parts.push_back(child);
        }
      }
      return Regex::Concat(std::move(parts));
    }
  }
  return nullptr;
}

void RenderParticle(const Regex& regex, const Alphabet& sigma,
                    std::ostringstream& os) {
  switch (regex.kind()) {
    case RegexKind::kSymbol:
      os << sigma.Name(regex.symbol());
      break;
    case RegexKind::kConcat:
    case RegexKind::kUnion: {
      const char* separator =
          regex.kind() == RegexKind::kConcat ? ", " : " | ";
      os << "(";
      for (size_t i = 0; i < regex.children().size(); ++i) {
        if (i > 0) os << separator;
        RenderParticle(*regex.children()[i], sigma, os);
      }
      os << ")";
      break;
    }
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOptional: {
      const Regex& child = *regex.children()[0];
      if (child.kind() == RegexKind::kSymbol) {
        os << "(";
        RenderParticle(child, sigma, os);
        os << ")";
      } else {
        RenderParticle(child, sigma, os);
      }
      os << (regex.kind() == RegexKind::kStar
                 ? "*"
                 : regex.kind() == RegexKind::kPlus ? "+" : "?");
      break;
    }
    default:
      break;  // ε and ∅ are normalized away before rendering
  }
}

}  // namespace

std::string DtdToString(const Dtd& dtd) {
  std::ostringstream os;
  for (int a = 0; a < dtd.num_symbols(); ++a) {
    os << "<!ELEMENT " << dtd.sigma.Name(a) << " ";
    RegexPtr normalized = NormalizeForDtd(*DfaToRegex(dtd.content[a]));
    if (normalized == nullptr) {
      os << "EMPTY";
    } else if (normalized->kind() == RegexKind::kSymbol ||
               normalized->kind() == RegexKind::kStar ||
               normalized->kind() == RegexKind::kPlus ||
               normalized->kind() == RegexKind::kOptional) {
      std::ostringstream body;
      RenderParticle(*normalized, dtd.sigma, body);
      os << "(" << body.str() << ")";
    } else {
      std::ostringstream body;
      RenderParticle(*normalized, dtd.sigma, body);
      os << body.str();
    }
    os << ">\n";
  }
  return os.str();
}

}  // namespace stap
