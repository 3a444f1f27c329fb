#include "stap/schema/text_format.h"

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "stap/base/compile_cache.h"
#include "stap/base/string_util.h"
#include "stap/base/trace.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/content_regex.h"
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
void WriteStartLine(const std::vector<int>& start_types,
                    const std::vector<std::string>& type_names,
                    std::string* out) {
  *out += "start";
  for (int tau : start_types) {
    *out += ' ';
    *out += type_names[tau];
  }
  *out += '\n';
}

// A retained source regex is printed when it carries counted repetition:
// DfaToRegex would render the expansion, losing the bounds. Elsewhere the
// state-eliminated form stays the canonical rendering.
bool PrintsSource(const RegexPtr& source) {
  return source != nullptr && source->ContainsRepeat();
}

// One `type NAME : LABEL -> regex` line, shared by both printers.
void WriteTypeLine(std::string_view name, std::string_view label,
                   std::string_view content, std::string* out) {
  *out += "type ";
  *out += name;
  *out += " : ";
  *out += label;
  *out += " -> ";
  *out += content;
  *out += '\n';
}

}  // namespace

std::string SchemaToText(const Edtd& edtd) {
  const std::vector<std::string>& type_names = edtd.types.names();
  std::string out;
  WriteStartLine(edtd.start_types, type_names, &out);
  ContentRegexMemo memo(/*budget=*/nullptr);
  std::vector<int> symbols;
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    RegexPtr content = tau < static_cast<int>(edtd.content_source.size())
                           ? edtd.content_source[tau]
                           : nullptr;
    symbols.clear();  // a source prints its symbols as they are
    // A null budget never exhausts.
    if (!PrintsSource(content)) {
      content = *memo.Eliminate(edtd.content[tau], &symbols);
    }
    WriteTypeLine(type_names[tau], edtd.sigma.Name(edtd.mu[tau]),
                  *content->ToString(type_names, symbols, nullptr), &out);
  }
  return out;
}

StatusOr<std::string> XsdToText(const DfaXsd& xsd, Budget* budget) {
  StatusOr<DfaXsd> minimized = MinimizeXsd(xsd, budget);
  if (!minimized.ok()) return minimized.status();
  ScopedSpan span("schema.print");
  // The stEDTD view of Prop. 2.9, one state at a time: state q ≥ 1 is
  // type q - 1, named LABEL@q, and its content is LiftContent's local
  // DFA, whose symbols map back to type ids. No N×N table is built, and
  // the memo minimizes and eliminates each distinct local DFA once.
  const DfaXsd& m = *minimized;
  const int num_states = m.automaton.num_states();
  std::vector<std::string> type_names;
  type_names.reserve(num_states > 0 ? num_states - 1 : 0);
  for (int q = 1; q < num_states; ++q) {
    type_names.push_back(m.sigma.Name(m.state_label[q]) + "@" +
                         std::to_string(q));
  }
  std::vector<int> start_types;
  for (int a : m.start_symbols) {
    int q = m.automaton.Next(0, a);
    if (q != kNoState) StateSetInsert(start_types, q - 1);
  }
  std::string out;
  WriteStartLine(start_types, type_names, &out);
  ContentRegexMemo memo(budget);
  for (int q = 1; q < num_states; ++q) {
    LiftedContent lifted = LiftContent(m, q);
    StatusOr<RegexPtr> content =
        m.content_source.empty() || m.content_source[q] == nullptr
            ? nullptr
            : Regex::Substitute(m.content_source[q], lifted.symbol_to_type);
    std::vector<int> symbols;  // a source prints its symbols as they are
    if (!PrintsSource(*content)) {
      content = memo.EliminateMinimized(std::move(lifted.dfa));
      if (!content.ok()) return content.status();
      symbols = std::move(lifted.types);
    }
    StatusOr<std::string> text =
        (*content)->ToString(type_names, symbols, budget);
    if (!text.ok()) return text.status();
    WriteTypeLine(type_names[q - 1], m.sigma.Name(m.state_label[q]), *text,
                  &out);
  }
  span.AddArg("bytes", out.size());
  span.AddArg("distinct_contents", memo.distinct_contents());
  return out;
}

}  // namespace stap
