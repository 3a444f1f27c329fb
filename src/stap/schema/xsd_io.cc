#include "stap/schema/xsd_io.h"

#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "stap/base/check.h"
#include "stap/base/string_util.h"
#include "stap/regex/bkw.h"
#include "stap/regex/dre_approx.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/content_regex.h"
#include "stap/tree/xml.h"

namespace stap {

namespace {

constexpr char kXsdNamespace[] = "http://www.w3.org/2001/XMLSchema";

// Splits "prefix:local" (no prefix → empty prefix).
void SplitQName(std::string_view name, std::string_view* prefix,
                std::string_view* local) {
  size_t colon = name.find(':');
  if (colon == std::string_view::npos) {
    *prefix = std::string_view();
    *local = name;
  } else {
    *prefix = name.substr(0, colon);
    *local = name.substr(colon + 1);
  }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

std::string TypeNameOfState(const DfaXsd& xsd, int state) {
  return "t" + std::to_string(state) + "_" +
         xsd.sigma.Name(xsd.state_label[state]);
}

// Attaches occurrence bounds to `particle`. Any particle may carry them
// directly, so wrapping in an extra <xs:sequence> is only needed when the
// particle already has bounds of its own (nested repetitions) or special
// semantics (the stap-empty choice, whose import ignores occurs).
XmlElement WithOccurs(XmlElement particle, std::string min, std::string max) {
  if (particle.FindAttribute("minOccurs") != nullptr ||
      particle.FindAttribute("maxOccurs") != nullptr ||
      particle.FindAttribute("stap-empty") != nullptr) {
    XmlElement wrapper;
    wrapper.name = "xs:sequence";
    wrapper.attributes.push_back({"minOccurs", std::move(min)});
    wrapper.attributes.push_back({"maxOccurs", std::move(max)});
    wrapper.children.push_back(std::move(particle));
    return wrapper;
  }
  particle.attributes.push_back({"minOccurs", std::move(min)});
  particle.attributes.push_back({"maxOccurs", std::move(max)});
  return particle;
}

// Builds state `state`'s content particle from a regex, walking it as a
// tree: a subexpression DfaToRegex shares becomes one particle per
// occurrence, so every particle charges the budget's state quota, and the
// first failed charge stops the walk (status() says why).
class ParticleBuilder {
 public:
  ParticleBuilder(const DfaXsd& xsd, int state, Budget* budget)
      : xsd_(xsd), state_(state), budget_(budget) {}

  XmlElement Build(const Regex& regex) {
    if (status_.ok()) status_ = Budget::ChargeStates(budget_);
    if (!status_.ok()) return XmlElement{};
    switch (regex.kind()) {
      case RegexKind::kEmptySet: {
        // Unsatisfiable content; an empty choice (flagged, since W3C XSD
        // has no direct equivalent). Reduced schemas never produce this.
        XmlElement choice;
        choice.name = "xs:choice";
        choice.attributes.push_back({"stap-empty", "true"});
        return choice;
      }
      case RegexKind::kEpsilon: {
        XmlElement sequence;
        sequence.name = "xs:sequence";
        return sequence;
      }
      case RegexKind::kSymbol: {
        int symbol = regex.symbol();
        int child_state = xsd_.automaton.Next(state_, symbol);
        STAP_CHECK(child_state != kNoState);  // content is trim
        XmlElement element;
        element.name = "xs:element";
        element.attributes.push_back({"name", xsd_.sigma.Name(symbol)});
        element.attributes.push_back(
            {"type", TypeNameOfState(xsd_, child_state)});
        return element;
      }
      case RegexKind::kConcat:
      case RegexKind::kUnion: {
        XmlElement group;
        group.name = regex.kind() == RegexKind::kConcat ? "xs:sequence"
                                                        : "xs:choice";
        for (const RegexPtr& child : regex.children()) {
          group.children.push_back(Build(*child));
        }
        return group;
      }
      case RegexKind::kStar:
        return WithOccurs(Build(*regex.children()[0]), "0", "unbounded");
      case RegexKind::kPlus:
        return WithOccurs(Build(*regex.children()[0]), "1", "unbounded");
      case RegexKind::kOptional:
        return WithOccurs(Build(*regex.children()[0]), "0", "1");
      case RegexKind::kRepeat:
        return WithOccurs(Build(*regex.children()[0]),
                          std::to_string(regex.repeat_min()),
                          regex.repeat_max() == Regex::kUnboundedRepeat
                              ? "unbounded"
                              : std::to_string(regex.repeat_max()));
    }
    return XmlElement{};
  }

  const Status& status() const { return status_; }

 private:
  const DfaXsd& xsd_;
  const int state_;
  Budget* const budget_;
  Status status_;
};

// ParticleBuilder dereferences δ(state, a) for every symbol the regex
// mentions, which only works when each has a live transition — true for
// state-eliminated output (built from the trimmed content DFA) but a
// precondition to verify before trusting content_source provenance.
bool SymbolsHaveTransitions(const DfaXsd& xsd, int state, const Regex& regex) {
  if (regex.kind() == RegexKind::kSymbol) {
    return xsd.automaton.Next(state, regex.symbol()) != kNoState;
  }
  for (const RegexPtr& child : regex.children()) {
    if (!SymbolsHaveTransitions(xsd, state, *child)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

struct Occurs {
  int64_t min = 1;
  int64_t max = 1;  // kUnboundedOccurs for maxOccurs="unbounded"
  bool explicit_min = false;

  static constexpr int64_t kUnbounded = -1;
};

// Overflow-checked decimal occurrence value; bounds above
// Regex::kMaxRepeatBound are rejected rather than wrapped.
StatusOr<int64_t> ParseOccursValue(const std::string& value,
                                   const char* attribute) {
  auto error = [&]() {
    return InvalidArgumentError(
        std::string(attribute) + "='" + value +
        "' is not an integer in 0.." +
        std::to_string(Regex::kMaxRepeatBound));
  };
  if (value.empty()) return error();
  int64_t result = 0;
  for (char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return error();
    result = result * 10 + (c - '0');
    if (result > Regex::kMaxRepeatBound) return error();
  }
  return result;
}

StatusOr<Occurs> ReadOccurs(const XmlElement& element) {
  Occurs occurs;
  if (const std::string* value = element.FindAttribute("minOccurs")) {
    StatusOr<int64_t> min = ParseOccursValue(*value, "minOccurs");
    if (!min.ok()) return min.status();
    occurs.min = *min;
    occurs.explicit_min = true;
  }
  if (const std::string* value = element.FindAttribute("maxOccurs")) {
    if (*value == "unbounded") {
      occurs.max = Occurs::kUnbounded;
    } else {
      StatusOr<int64_t> max = ParseOccursValue(*value, "maxOccurs");
      if (!max.ok()) return max.status();
      occurs.max = *max;
    }
  }
  if (occurs.max != Occurs::kUnbounded && occurs.min > occurs.max) {
    // maxOccurs="0" with the *default* minOccurs of 1 is the documented
    // drop-the-particle idiom, not a contradiction; an explicit
    // minOccurs > maxOccurs is.
    if (occurs.max != 0 || occurs.explicit_min) {
      return InvalidArgumentError(
          "minOccurs=" + std::to_string(occurs.min) + " exceeds maxOccurs=" +
          std::to_string(occurs.max));
    }
  }
  return occurs;
}

RegexPtr ApplyOccurs(RegexPtr regex, const Occurs& occurs) {
  if (occurs.max == 0) return Regex::Epsilon();
  return Regex::Repeat(std::move(regex), static_cast<int>(occurs.min),
                       occurs.max == Occurs::kUnbounded
                           ? Regex::kUnboundedRepeat
                           : static_cast<int>(occurs.max));
}

class Importer {
 public:
  explicit Importer(Budget* budget) : budget_(budget) {}

  StatusOr<Edtd> Run(std::string_view xml) {
    StatusOr<XmlElement> document = ParseXmlDocument(xml);
    if (!document.ok()) return document.status();
    STAP_RETURN_IF_ERROR(ResolveNamespaces(*document));

    // Pass 1: collect named complex types and global elements.
    std::vector<std::pair<std::string, std::string>> globals;  // name, type
    for (const XmlElement& child : document->children) {
      if (IsXsd(child, "complexType")) {
        const std::string* name = child.FindAttribute("name");
        if (name == nullptr) {
          return InvalidArgumentError(
              "top-level xs:complexType must be named");
        }
        if (!complex_types_.emplace(*name, &child).second) {
          return InvalidArgumentError("duplicate top-level complexType '" +
                                      *name + "'");
        }
      } else if (IsXsd(child, "element")) {
        const std::string* name = child.FindAttribute("name");
        if (name == nullptr) {
          return InvalidArgumentError("global xs:element must be named");
        }
        StatusOr<std::string> type = ElementTypeName(child);
        if (!type.ok()) return type.status();
        globals.emplace_back(*name, *type);
      } else if (IsXsd(child, "annotation")) {
        continue;
      } else {
        return UnimplementedError("unsupported top-level element <" +
                                  child.name + ">");
      }
    }

    // Pass 2: discover all (element name, type name) pairings and compile
    // their content expressions. The worklist grows as particles mention
    // new pairings.
    for (const auto& [element_name, type_name] : globals) {
      int type_id = InternType(element_name, type_name);
      StateSetInsert(edtd_.start_types, type_id);
    }
    for (size_t done = 0; done < discovered_.size(); ++done) {
      std::string type_name = discovered_[done].second;
      if (content_regex_.count(type_name) > 0) continue;
      auto it = complex_types_.find(type_name);
      if (it == complex_types_.end()) {
        return InvalidArgumentError("unknown complexType '" + type_name +
                                    "'");
      }
      StatusOr<RegexPtr> regex = ParticleListToRegex(it->second->children);
      if (!regex.ok()) return regex.status();
      content_regex_[type_name] = *regex;
    }

    // Pass 3: compile content DFAs now that every type id exists. Counted
    // repetition expands here, under the budget.
    edtd_.content.resize(edtd_.num_types());
    for (int tau = 0; tau < edtd_.num_types(); ++tau) {
      const std::string& type_name = discovered_[tau].second;
      const RegexPtr& source = content_regex_.at(type_name);
      StatusOr<Dfa> dfa = RegexToDfa(*source, edtd_.num_types(), budget_);
      if (!dfa.ok()) return dfa.status();
      edtd_.content[tau] = *std::move(dfa);
      edtd_.content_source.push_back(source);
    }
    edtd_.CheckWellFormed();
    return edtd_;
  }

 private:
  // Determines which name prefixes denote the XSD namespace, from the
  // root's xmlns declarations. A root prefix that is declared but bound
  // elsewhere is an error; an undeclared root prefix is accepted by
  // convention (bare <schema> / <xs:schema> without boilerplate).
  Status ResolveNamespaces(const XmlElement& root) {
    std::string_view root_prefix;
    std::string_view root_local;
    SplitQName(root.name, &root_prefix, &root_local);
    if (root_local != "schema") {
      return InvalidArgumentError("root element must be an XSD <schema>, got <" +
                                  root.name + ">");
    }
    const std::string* root_binding = nullptr;
    for (const XmlAttribute& attribute : root.attributes) {
      std::string_view bound_prefix;
      if (attribute.name == "xmlns") {
        bound_prefix = std::string_view();
      } else if (StartsWith(attribute.name, "xmlns:")) {
        bound_prefix = std::string_view(attribute.name).substr(6);
      } else {
        continue;
      }
      if (attribute.value == kXsdNamespace) {
        xsd_prefixes_.insert(std::string(bound_prefix));
      }
      if (bound_prefix == root_prefix) root_binding = &attribute.value;
    }
    if (root_binding != nullptr && *root_binding != kXsdNamespace) {
      return InvalidArgumentError("root <" + root.name +
                                  "> is bound to namespace '" + *root_binding +
                                  "', not " + kXsdNamespace);
    }
    if (root_binding == nullptr) {
      xsd_prefixes_.insert(std::string(root_prefix));
    }
    return Status();
  }

  // True if `element` is the XSD element with the given local name, under
  // any prefix resolved to the XSD namespace.
  bool IsXsd(const XmlElement& element, std::string_view local) const {
    std::string_view prefix;
    std::string_view element_local;
    SplitQName(element.name, &prefix, &element_local);
    return element_local == local &&
           xsd_prefixes_.count(std::string(prefix)) > 0;
  }

  // The declared type of an element: a `type` attribute or an inline
  // anonymous complex type (which gets a synthetic name).
  StatusOr<std::string> ElementTypeName(const XmlElement& element) {
    const std::string* type = element.FindAttribute("type");
    const XmlElement* inline_type = nullptr;
    for (const XmlElement& child : element.children) {
      if (IsXsd(child, "complexType")) {
        if (inline_type != nullptr || type != nullptr) {
          return InvalidArgumentError(
              "element has both/multiple type declarations");
        }
        inline_type = &child;
      }
    }
    if (type != nullptr) return *type;
    if (inline_type != nullptr) {
      std::string name;
      do {
        name = "anon" + std::to_string(anonymous_counter_++);
      } while (complex_types_.count(name) > 0);
      complex_types_[name] = inline_type;
      return name;
    }
    return UnimplementedError(
        "element without a complex type (simple types are outside the "
        "subset)");
  }

  int InternType(const std::string& element_name,
                 const std::string& type_name) {
    std::string key = element_name + "$" + type_name;
    int id = edtd_.types.Intern(key);
    if (id == static_cast<int>(edtd_.mu.size())) {
      edtd_.mu.push_back(edtd_.sigma.Intern(element_name));
      discovered_.emplace_back(element_name, type_name);
    }
    return id;
  }

  StatusOr<RegexPtr> ParticleListToRegex(
      const std::vector<XmlElement>& particles) {
    std::vector<RegexPtr> parts;
    for (const XmlElement& particle : particles) {
      if (IsXsd(particle, "annotation")) continue;
      StatusOr<RegexPtr> part = ParticleToRegex(particle);
      if (!part.ok()) return part;
      parts.push_back(*part);
    }
    return Regex::Concat(std::move(parts));
  }

  StatusOr<RegexPtr> ParticleToRegex(const XmlElement& particle) {
    StatusOr<Occurs> occurs = ReadOccurs(particle);
    if (!occurs.ok()) return occurs.status();
    if (occurs->max == 0 &&
        (IsXsd(particle, "sequence") || IsXsd(particle, "choice") ||
         IsXsd(particle, "element"))) {
      // maxOccurs="0": the particle is dropped wholesale — its body is
      // not walked, so types mentioned only here are never interned.
      return Regex::Epsilon();
    }
    if (IsXsd(particle, "sequence")) {
      StatusOr<RegexPtr> body = ParticleListToRegex(particle.children);
      if (!body.ok()) return body;
      return ApplyOccurs(*body, *occurs);
    }
    if (IsXsd(particle, "choice")) {
      if (particle.FindAttribute("stap-empty") != nullptr) {
        return Regex::EmptySet();
      }
      std::vector<RegexPtr> alternatives;
      for (const XmlElement& child : particle.children) {
        if (IsXsd(child, "annotation")) continue;
        StatusOr<RegexPtr> alternative = ParticleToRegex(child);
        if (!alternative.ok()) return alternative;
        alternatives.push_back(*alternative);
      }
      return ApplyOccurs(Regex::Union(std::move(alternatives)), *occurs);
    }
    if (IsXsd(particle, "element")) {
      const std::string* name = particle.FindAttribute("name");
      if (name == nullptr) {
        return UnimplementedError(
            "xs:element without a name (element refs are outside the "
            "subset)");
      }
      StatusOr<std::string> type = ElementTypeName(particle);
      if (!type.ok()) return type.status();
      return ApplyOccurs(Regex::Symbol(InternType(*name, *type)), *occurs);
    }
    return UnimplementedError("unsupported particle <" + particle.name + ">");
  }

  Budget* budget_;
  Edtd edtd_;
  std::set<std::string> xsd_prefixes_;
  std::map<std::string, const XmlElement*> complex_types_;
  std::map<std::string, RegexPtr> content_regex_;
  // Type id -> (element name, type name), in id order.
  std::vector<std::pair<std::string, std::string>> discovered_;
  int anonymous_counter_ = 0;
};

}  // namespace

StatusOr<std::string> ExportXsd(const DfaXsd& xsd,
                                const XsdExportOptions& options,
                                Budget* budget) {
  xsd.CheckWellFormed();
  const int init = xsd.automaton.initial();
  XmlElement schema;
  schema.name = "xs:schema";
  schema.attributes.push_back(
      {"xmlns:xs", "http://www.w3.org/2001/XMLSchema"});

  for (int a : xsd.start_symbols) {
    int state = xsd.automaton.Next(init, a);
    if (state == kNoState) continue;
    XmlElement global;
    global.name = "xs:element";
    global.attributes.push_back({"name", xsd.sigma.Name(a)});
    global.attributes.push_back({"type", TypeNameOfState(xsd, state)});
    schema.children.push_back(std::move(global));
  }
  ContentRegexMemo memo(budget);
  std::vector<int> symbols;
  for (int q = 0; q < xsd.automaton.num_states(); ++q) {
    if (q == init) continue;  // q_init carries no content model
    XmlElement complex_type;
    complex_type.name = "xs:complexType";
    complex_type.attributes.push_back({"name", TypeNameOfState(xsd, q)});
    RegexPtr regex;
    if (!*IsOneUnambiguousLanguage(xsd.content[q])) {
      // Section 5: no best deterministic expression may exist; the model
      // violates UPA. Either approximate it away (upper approximation of
      // the content language) or flag it for downstream tooling.
      if (options.repair_upa) {
        regex = ApproximateDre(xsd.content[q]);
        complex_type.attributes.push_back({"stap-upa", "approximated"});
      } else {
        complex_type.attributes.push_back({"stap-upa", "unsatisfiable"});
      }
    }
    if (regex == nullptr && q < static_cast<int>(xsd.content_source.size()) &&
        xsd.content_source[q] != nullptr &&
        xsd.content_source[q]->ContainsRepeat() &&
        SymbolsHaveTransitions(xsd, q, *xsd.content_source[q])) {
      // Counted provenance: emit the source expression so numeric bounds
      // survive instead of being exploded by state elimination.
      regex = xsd.content_source[q];
    }
    if (regex == nullptr) {
      StatusOr<RegexPtr> eliminated = memo.Eliminate(xsd.content[q], &symbols);
      if (!eliminated.ok()) return eliminated.status();
      regex = Regex::Substitute(*eliminated, symbols);
    }
    ParticleBuilder particles(xsd, q, budget);
    complex_type.children.push_back(particles.Build(*regex));
    if (!particles.status().ok()) return particles.status();
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    schema.children.push_back(std::move(complex_type));
  }
  return XmlElementToString(schema);
}

StatusOr<Edtd> ImportXsd(std::string_view xml, Budget* budget) {
  return Importer(budget).Run(xml);
}

}  // namespace stap
