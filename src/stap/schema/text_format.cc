#include "stap/schema/text_format.h"

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "stap/base/compile_cache.h"
#include "stap/base/string_util.h"
#include "stap/base/trace.h"
#include "stap/regex/from_dfa.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/minimize.h"

namespace stap {

namespace {

// The raw declarations of a schema file, before content compilation.
struct SchemaDeclarations {
  Alphabet sigma;
  Alphabet types;
  std::vector<int> mu;
  std::vector<std::string> content_sources;  // regex text per type
  std::vector<int> start_types;              // sorted
};

StatusOr<SchemaDeclarations> ParseSchemaDeclarations(std::string_view input) {
  SchemaDeclarations decls;
  std::vector<std::string> start_names;

  std::istringstream stream{std::string(input)};
  std::string raw_line;
  int line_number = 0;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto error = [&](const std::string& message) {
      return InvalidArgumentError("schema line " + std::to_string(line_number) +
                                  ": " + message);
    };
    if (StartsWith(line, "start")) {
      for (const std::string& name : SplitAndTrim(line.substr(5), ' ')) {
        start_names.push_back(name);
      }
      continue;
    }
    if (StartsWith(line, "type")) {
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return error("expected ':' in type rule");
      }
      size_t arrow = line.find("->", colon);
      if (arrow == std::string_view::npos) {
        return error("expected '->' in type rule");
      }
      std::string_view type_name = StripWhitespace(line.substr(4, colon - 4));
      std::string_view label =
          StripWhitespace(line.substr(colon + 1, arrow - colon - 1));
      std::string_view regex_text = StripWhitespace(line.substr(arrow + 2));
      if (type_name.empty()) return error("empty type name");
      if (label.empty()) return error("empty label");
      int type_id = decls.types.Intern(type_name);
      if (type_id < static_cast<int>(decls.mu.size())) {
        return error("duplicate type '" + std::string(type_name) + "'");
      }
      decls.mu.push_back(decls.sigma.Intern(label));
      decls.content_sources.emplace_back(regex_text);
      continue;
    }
    return error("expected 'start' or 'type' directive");
  }

  for (const std::string& name : start_names) {
    int type_id = decls.types.Find(name);
    if (type_id == kNoSymbol) {
      return InvalidArgumentError("unknown start type '" + name + "'");
    }
    StateSetInsert(decls.start_types, type_id);
  }
  return decls;
}

}  // namespace

StatusOr<Edtd> ParseSchema(std::string_view input, CompileCache* cache,
                           Budget* budget) {
  StatusOr<SchemaDeclarations> decls = ParseSchemaDeclarations(input);
  if (!decls.ok()) return decls.status();

  Edtd edtd;
  edtd.sigma = decls->sigma;
  edtd.types = decls->types;
  edtd.mu = decls->mu;
  edtd.start_types = decls->start_types;
  // Content regexes may mention types declared later; compilation happens
  // after all declarations are in, with the final type count. With a
  // cache, each (source, type alphabet) pair compiles at most once per
  // process; the compiled minimal DFA is copied out of the shared entry.
  // A caller-supplied budget bypasses the cache: a quota-limited compile
  // must neither publish a partial result nor consume someone else's.
  for (const std::string& source : decls->content_sources) {
    StatusOr<RegexPtr> regex =
        ParseRegex(source, &edtd.types, /*intern_new_symbols=*/false);
    if (!regex.ok()) return regex.status();
    auto compile = [&]() -> StatusOr<Dfa> {
      return RegexToDfa(**regex, edtd.types.size(), budget);
    };
    if (cache == nullptr || budget != nullptr) {
      StatusOr<Dfa> dfa = compile();
      if (!dfa.ok()) return dfa.status();
      edtd.content.push_back(std::move(*dfa));
    } else {
      StatusOr<std::shared_ptr<const Dfa>> dfa =
          cache->GetOrCompile(MakeContentModelKey(source, edtd.types), compile);
      if (!dfa.ok()) return dfa.status();
      edtd.content.push_back(**dfa);
    }
    edtd.content_source.push_back(*regex);
  }
  edtd.CheckWellFormed();
  return edtd;
}

namespace {

// The `start` line.
void WriteStartLine(std::ostream& os, const std::vector<int>& start_types,
                    const Alphabet& types) {
  os << "start";
  for (int tau : start_types) os << " " << types.Name(tau);
  os << "\n";
}

// One `type NAME : LABEL -> regex` line, shared by both printers. A
// retained source regex is preferred when it carries counted repetition:
// DfaToRegex would render the expansion, losing the bounds. Elsewhere the
// state-eliminated form `fallback` stays the canonical rendering.
template <typename Fallback>
void WriteTypeLine(std::ostream& os, std::string_view name,
                   std::string_view label, const RegexPtr& source,
                   Fallback fallback, const Alphabet& types) {
  RegexPtr content = source != nullptr && source->ContainsRepeat()
                         ? source
                         : fallback();
  os << "type " << name << " : " << label << " -> " << content->ToString(types)
     << "\n";
}

}  // namespace

std::string SchemaToText(const Edtd& edtd) {
  std::ostringstream os;
  WriteStartLine(os, edtd.start_types, edtd.types);
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    RegexPtr source = tau < static_cast<int>(edtd.content_source.size())
                          ? edtd.content_source[tau]
                          : nullptr;
    WriteTypeLine(
        os, edtd.types.Name(tau), edtd.sigma.Name(edtd.mu[tau]), source,
        [&] { return DfaToRegex(edtd.content[tau]); }, edtd.types);
  }
  return os.str();
}

StatusOr<std::string> XsdToText(const DfaXsd& xsd, Budget* budget) {
  StatusOr<DfaXsd> minimized = MinimizeXsd(xsd, budget);
  if (!minimized.ok()) return minimized.status();
  ScopedSpan span("schema.print");
  // The stEDTD view of Prop. 2.9, one state at a time: state q ≥ 1 is
  // type q - 1, named LABEL@q, and its content is LiftContent's local
  // DFA, whose symbols map back to type ids. No N×N table is built.
  const DfaXsd& m = *minimized;
  const int num_states = m.automaton.num_states();
  Alphabet types;
  for (int q = 1; q < num_states; ++q) {
    types.Intern(m.sigma.Name(m.state_label[q]) + "@" + std::to_string(q));
  }
  std::vector<int> start_types;
  for (int a : m.start_symbols) {
    int q = m.automaton.Next(0, a);
    if (q != kNoState) StateSetInsert(start_types, q - 1);
  }
  std::ostringstream os;
  WriteStartLine(os, start_types, types);
  for (int q = 1; q < num_states; ++q) {
    LiftedContent lifted = LiftContent(m, q);
    RegexPtr source =
        m.content_source.empty() || m.content_source[q] == nullptr
            ? nullptr
            : Regex::Substitute(m.content_source[q], lifted.symbol_to_type);
    WriteTypeLine(
        os, types.Name(q - 1), m.sigma.Name(m.state_label[q]), source,
        [&] { return Regex::Substitute(DfaToRegex(lifted.dfa), lifted.types); },
        types);
  }
  std::string text = os.str();
  span.AddArg("bytes", text.size());
  return text;
}

}  // namespace stap
