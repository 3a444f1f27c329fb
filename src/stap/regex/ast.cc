#include "stap/regex/ast.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "stap/base/check.h"

namespace stap {

RegexPtr Regex::EmptySet() {
  return RegexPtr(new Regex(RegexKind::kEmptySet, kNoSymbol, {}));
}

RegexPtr Regex::Epsilon() {
  return RegexPtr(new Regex(RegexKind::kEpsilon, kNoSymbol, {}));
}

RegexPtr Regex::Symbol(int symbol) {
  STAP_CHECK(symbol >= 0);
  return RegexPtr(new Regex(RegexKind::kSymbol, symbol, {}));
}

RegexPtr Regex::Concat(std::vector<RegexPtr> children) {
  if (children.empty()) return Epsilon();
  if (children.size() == 1) return children[0];
  return RegexPtr(new Regex(RegexKind::kConcat, kNoSymbol, std::move(children)));
}

RegexPtr Regex::Union(std::vector<RegexPtr> children) {
  if (children.empty()) return EmptySet();
  if (children.size() == 1) return children[0];
  return RegexPtr(new Regex(RegexKind::kUnion, kNoSymbol, std::move(children)));
}

RegexPtr Regex::Star(RegexPtr child) {
  return RegexPtr(new Regex(RegexKind::kStar, kNoSymbol, {std::move(child)}));
}

RegexPtr Regex::Plus(RegexPtr child) {
  return RegexPtr(new Regex(RegexKind::kPlus, kNoSymbol, {std::move(child)}));
}

RegexPtr Regex::Optional(RegexPtr child) {
  return RegexPtr(
      new Regex(RegexKind::kOptional, kNoSymbol, {std::move(child)}));
}

RegexPtr Regex::Repeat(RegexPtr child, int min, int max) {
  STAP_CHECK(min >= 0 && min <= kMaxRepeatBound);
  STAP_CHECK(max == kUnboundedRepeat || (max >= min && max <= kMaxRepeatBound));
  // ε{n,m} = ε; ∅{n,m} = ε when n == 0 (zero copies allowed), ∅ otherwise.
  if (child->kind() == RegexKind::kEpsilon) return child;
  if (child->kind() == RegexKind::kEmptySet) {
    return min == 0 ? Epsilon() : child;
  }
  if (max == kUnboundedRepeat) {
    if (min == 0) return Star(std::move(child));
    if (min == 1) return Plus(std::move(child));
  } else {
    if (max == 0) return Epsilon();
    if (min == 0 && max == 1) return Optional(std::move(child));
    if (min == 1 && max == 1) return child;
  }
  Regex* node = new Regex(RegexKind::kRepeat, kNoSymbol, {std::move(child)});
  node->repeat_min_ = min;
  node->repeat_max_ = max;
  return RegexPtr(node);
}

RegexPtr Regex::Literal(const Word& word) {
  std::vector<RegexPtr> parts;
  parts.reserve(word.size());
  for (int symbol : word) parts.push_back(Symbol(symbol));
  return Concat(std::move(parts));
}

bool Regex::IsNullable() const {
  switch (kind_) {
    case RegexKind::kEmptySet:
      return false;
    case RegexKind::kEpsilon:
      return true;
    case RegexKind::kSymbol:
      return false;
    case RegexKind::kConcat: {
      for (const RegexPtr& child : children_) {
        if (!child->IsNullable()) return false;
      }
      return true;
    }
    case RegexKind::kUnion: {
      for (const RegexPtr& child : children_) {
        if (child->IsNullable()) return true;
      }
      return false;
    }
    case RegexKind::kStar:
    case RegexKind::kOptional:
      return true;
    case RegexKind::kPlus:
      return children_[0]->IsNullable();
    case RegexKind::kRepeat:
      return repeat_min_ == 0 || children_[0]->IsNullable();
  }
  return false;
}

int Regex::NumNodes() const {
  int count = 1;
  for (const RegexPtr& child : children_) count += child->NumNodes();
  return count;
}

bool Regex::ContainsRepeat() const {
  if (kind_ == RegexKind::kRepeat) return true;
  for (const RegexPtr& child : children_) {
    if (child->ContainsRepeat()) return true;
  }
  return false;
}

int Regex::MaxSymbol() const {
  int max_symbol = kind_ == RegexKind::kSymbol ? symbol_ : kNoSymbol;
  for (const RegexPtr& child : children_) {
    max_symbol = std::max(max_symbol, child->MaxSymbol());
  }
  return max_symbol;
}

RegexPtr Regex::Substitute(const RegexPtr& regex,
                           const std::vector<int>& symbol_map) {
  // An empty map allocates nothing until a shared node is met.
  std::unordered_map<const Regex*, RegexPtr> memo;
  return SubstituteNode(regex, symbol_map, memo);
}

RegexPtr Regex::SubstituteNode(
    const RegexPtr& regex, const std::vector<int>& symbol_map,
    std::unordered_map<const Regex*, RegexPtr>& memo) {
  // Rewrites a child, once per shared node: a child held by more than
  // its parent may recur elsewhere in the expression.
  auto child_image = [&](const RegexPtr& child) -> RegexPtr {
    if (child.use_count() <= 1) return SubstituteNode(child, symbol_map, memo);
    auto it = memo.find(child.get());
    if (it != memo.end()) return it->second;
    RegexPtr image = SubstituteNode(child, symbol_map, memo);
    memo.emplace(child.get(), image);
    return image;
  };
  switch (regex->kind()) {
    case RegexKind::kEmptySet:
    case RegexKind::kEpsilon:
      return regex;
    case RegexKind::kSymbol: {
      int a = regex->symbol();
      if (a < 0 || a >= static_cast<int>(symbol_map.size()) ||
          symbol_map[a] == kNoSymbol) {
        return nullptr;
      }
      return Symbol(symbol_map[a]);
    }
    case RegexKind::kConcat:
    case RegexKind::kUnion: {
      std::vector<RegexPtr> children;
      children.reserve(regex->children().size());
      for (const RegexPtr& child : regex->children()) {
        RegexPtr mapped = child_image(child);
        if (mapped == nullptr) return nullptr;
        children.push_back(std::move(mapped));
      }
      // Bypass the Concat/Union factories: they would unwrap singleton
      // vectors, but the input has >= 2 children by construction.
      return RegexPtr(new Regex(regex->kind(), kNoSymbol, std::move(children)));
    }
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOptional:
    case RegexKind::kRepeat: {
      RegexPtr child = child_image(regex->children()[0]);
      if (child == nullptr) return nullptr;
      if (regex->kind() == RegexKind::kStar) return Star(std::move(child));
      if (regex->kind() == RegexKind::kPlus) return Plus(std::move(child));
      if (regex->kind() == RegexKind::kOptional) {
        return Optional(std::move(child));
      }
      return Repeat(std::move(child), regex->repeat_min(),
                    regex->repeat_max());
    }
  }
  return nullptr;
}

namespace {

// Precedence levels for printing: union < concat < postfix.
enum Level { kUnionLevel = 0, kConcatLevel = 1, kPostfixLevel = 2 };

// Renders into one string. A shared node (use_count() > 1, so it may
// recur within the expression: DfaToRegex returns a DAG) is rendered
// once; later occurrences copy its text from the output. A node's text
// excludes the parentheses its parent may need, so it does not depend on
// where the node occurs.
class Printer {
 public:
  Printer(const std::vector<std::string>& names,
          const std::vector<int>& symbol_map, Budget* budget)
      : names_(names), symbol_map_(symbol_map), budget_(budget) {}

  StatusOr<std::string> Render(const Regex& regex) && {
    Body(regex);
    if (status_.ok() && out_.size() > charged_) Charge(0, /*force=*/true);
    if (!status_.ok()) return status_;
    return std::move(out_);
  }

 private:
  // Text is charged in batches of at least this many bytes.
  static constexpr size_t kChargeBytes = 4096;

  // Charges the text rendered since the last charge plus `upcoming`
  // bytes about to be appended, once they reach kChargeBytes (or on
  // `force`), and checks the deadline. Fresh text is linear in the DAG's
  // nodes; only the copies of shared nodes can grow exponentially, and
  // each is charged before it is made. False once the budget has run
  // out.
  bool Charge(size_t upcoming, bool force = false) {
    if (budget_ == nullptr) return true;
    if (!status_.ok()) return false;
    const size_t pending = out_.size() + upcoming - charged_;
    if (pending < kChargeBytes && !force) return true;
    charged_ += pending;
    status_ = budget_->ChargeStates(static_cast<int64_t>(pending));
    if (status_.ok()) status_ = budget_->CheckDeadline();
    return status_.ok();
  }

  void Child(const RegexPtr& child, int parent_level) {
    const bool parens =
        (child->kind() == RegexKind::kUnion && kUnionLevel < parent_level) ||
        (child->kind() == RegexKind::kConcat && kConcatLevel < parent_level);
    if (parens) out_ += '(';
    if (child.use_count() > 1 && !child->children().empty()) {
      SharedBody(*child);
    } else {
      Body(*child);
    }
    if (parens) out_ += ')';
  }

  void SharedBody(const Regex& regex) {
    auto it = rendered_.find(&regex);
    if (it != rendered_.end()) {
      // [begin, begin + size) lies before the end of out_, so the copy
      // never overlaps itself.
      const auto [begin, size] = it->second;
      if (!Charge(size)) return;
      const size_t end = out_.size();
      out_.resize(end + size);
      std::memcpy(out_.data() + end, out_.data() + begin, size);
      return;
    }
    const size_t begin = out_.size();
    Body(regex);
    rendered_.emplace(&regex, std::make_pair(begin, out_.size() - begin));
  }

  void Body(const Regex& regex) {
    if (!status_.ok()) return;
    switch (regex.kind()) {
      case RegexKind::kEmptySet:
        out_ += '~';
        break;
      case RegexKind::kEpsilon:
        out_ += '%';
        break;
      case RegexKind::kSymbol:
        out_ += names_[symbol_map_.empty() ? regex.symbol()
                                           : symbol_map_[regex.symbol()]];
        break;
      case RegexKind::kUnion:
        for (size_t i = 0; i < regex.children().size(); ++i) {
          if (i > 0) out_ += " | ";
          Child(regex.children()[i], kUnionLevel + 1);
        }
        break;
      case RegexKind::kConcat:
        for (size_t i = 0; i < regex.children().size(); ++i) {
          if (i > 0) out_ += ' ';
          Child(regex.children()[i], kConcatLevel + 1);
        }
        break;
      case RegexKind::kStar:
      case RegexKind::kPlus:
      case RegexKind::kOptional:
        Child(regex.children()[0], kPostfixLevel);
        out_ += regex.kind() == RegexKind::kStar   ? '*'
                : regex.kind() == RegexKind::kPlus ? '+'
                                                   : '?';
        break;
      case RegexKind::kRepeat:
        Child(regex.children()[0], kPostfixLevel);
        out_ += '{';
        out_ += std::to_string(regex.repeat_min());
        if (regex.repeat_max() == Regex::kUnboundedRepeat) {
          out_ += ",}";
        } else if (regex.repeat_max() == regex.repeat_min()) {
          out_ += '}';
        } else {
          out_ += ',';
          out_ += std::to_string(regex.repeat_max());
          out_ += '}';
        }
        break;
    }
  }

  const std::vector<std::string>& names_;
  const std::vector<int>& symbol_map_;  // empty: every symbol as itself
  Budget* const budget_;
  Status status_;
  size_t charged_ = 0;  // bytes of out_ charged to budget_
  std::string out_;
  // Shared node → [begin, size) of its text in out_.
  std::unordered_map<const Regex*, std::pair<size_t, size_t>> rendered_;
};

}  // namespace

std::string Regex::ToString(const Alphabet& alphabet) const {
  // A null budget never exhausts.
  return *ToString(alphabet.names(), /*symbol_map=*/{}, /*budget=*/nullptr);
}

StatusOr<std::string> Regex::ToString(const std::vector<std::string>& names,
                                      const std::vector<int>& symbol_map,
                                      Budget* budget) const {
  return Printer(names, symbol_map, budget).Render(*this);
}

}  // namespace stap
