// Interning of symbol names to dense integer ids.
//
// Trees, schemas, and automata all operate on dense `int` symbol ids;
// an Alphabet maps those ids to human-readable names and back. Symbol id
// 0..size()-1 are valid; kNoSymbol (-1) is the universal "absent" marker.
#ifndef STAP_AUTOMATA_ALPHABET_H_
#define STAP_AUTOMATA_ALPHABET_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace stap {

inline constexpr int kNoSymbol = -1;

class Alphabet {
 public:
  Alphabet() = default;

  // Constructs an alphabet with the given symbol names, in order.
  explicit Alphabet(const std::vector<std::string>& names);

  // Returns the id for `name`, interning it if new.
  int Intern(std::string_view name);

  // Returns the id for `name`, or kNoSymbol if it was never interned.
  // Allocates nothing.
  int Find(std::string_view name) const;

  // Require: 0 <= id < size().
  const std::string& Name(int id) const { return names_[id]; }

  int size() const { return static_cast<int>(names_.size()); }

  const std::vector<std::string>& names() const { return names_; }

  friend bool operator==(const Alphabet& a, const Alphabet& b) {
    return a.names_ == b.names_;
  }

 private:
  // Transparent, so string_view lookups build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, int, NameHash, std::equal_to<>> ids_;
};

}  // namespace stap

#endif  // STAP_AUTOMATA_ALPHABET_H_
