#include "stap/schema/text_format.h"

#include <sstream>
#include <vector>

#include "stap/base/compile_cache.h"
#include "stap/base/string_util.h"
#include "stap/regex/from_dfa.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"

namespace stap {

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

std::string SchemaToText(const Edtd& edtd) {
  std::ostringstream os;
  os << "start";
  for (int tau : edtd.start_types) os << " " << edtd.types.Name(tau);
  os << "\n";
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    // Prefer the retained source regex when it carries counted repetition:
    // DfaToRegex would render the expansion, losing the bounds. Elsewhere
    // the state-eliminated form stays the canonical rendering.
    RegexPtr regex;
    if (tau < static_cast<int>(edtd.content_source.size()) &&
        edtd.content_source[tau] != nullptr &&
        edtd.content_source[tau]->ContainsRepeat()) {
      regex = edtd.content_source[tau];
    } else {
      regex = DfaToRegex(edtd.content[tau]);
    }
    os << "type " << edtd.types.Name(tau) << " : "
       << edtd.sigma.Name(edtd.mu[tau]) << " -> "
       << regex->ToString(edtd.types) << "\n";
  }
  return os.str();
}

}  // namespace stap
