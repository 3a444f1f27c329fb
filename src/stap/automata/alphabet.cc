#include "stap/automata/alphabet.h"

#include "stap/base/check.h"

namespace stap {

Alphabet::Alphabet(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    int id = Intern(name);
    STAP_CHECK(id == static_cast<int>(ids_.size()) - 1 ||
               names_[id] == name);  // duplicates collapse
  }
}

int Alphabet::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

int Alphabet::Find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoSymbol : it->second;
}

}  // namespace stap
