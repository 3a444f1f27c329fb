#include "stap/schema/builder.h"

#include "stap/base/check.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"

namespace stap {

int SchemaBuilder::AddType(const std::string& type_name,
                           const std::string& label,
                           const std::string& content_regex) {
  int id = types_.Intern(type_name);
  STAP_CHECK(id == static_cast<int>(mu_.size()));  // no duplicate types
  mu_.push_back(sigma_.Intern(label));
  content_sources_.push_back(content_regex);
  return id;
}

void SchemaBuilder::AddStart(const std::string& type_name) {
  start_names_.push_back(type_name);
}

Edtd SchemaBuilder::Build() const {
  Edtd edtd;
  edtd.sigma = sigma_;
  edtd.types = types_;
  edtd.mu = mu_;
  Alphabet resolver = types_;  // non-const copy for the parser API
  for (const std::string& source : content_sources_) {
    StatusOr<RegexPtr> regex =
        ParseRegex(source, &resolver, /*intern_new_symbols=*/false);
    STAP_CHECK_OK(regex.status());
    edtd.content.push_back(*RegexToDfa(**regex, types_.size()));
    edtd.content_source.push_back(*regex);
  }
  for (const std::string& name : start_names_) {
    int id = edtd.types.Find(name);
    STAP_CHECK(id != kNoSymbol);
    StateSetInsert(edtd.start_types, id);
  }
  edtd.CheckWellFormed();
  return edtd;
}

}  // namespace stap
