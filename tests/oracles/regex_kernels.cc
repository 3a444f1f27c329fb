#include "oracles/regex_kernels.h"

#include <sstream>
#include <utility>
#include <vector>

#include "stap/base/check.h"

namespace stap {

namespace {

// Position bookkeeping for the Glushkov construction. Positions are
// numbered from 1; position 0 is the fresh initial state.
struct PositionSets {
  bool nullable = false;
  std::vector<int> first;
  std::vector<int> last;
};

struct Builder {
  std::vector<int> position_symbol;          // 1-based; [0] unused
  std::vector<std::vector<int>> follow;      // 1-based; follow[p]
  Budget* budget = nullptr;
  Status status;  // first budget failure; latches and short-circuits

  int NewPosition(int symbol) {
    if (status.ok()) status = Budget::ChargeStates(budget);
    position_symbol.push_back(symbol);
    follow.emplace_back();
    return static_cast<int>(position_symbol.size()) - 1;
  }

  void AddFollow(const std::vector<int>& from, const std::vector<int>& to) {
    if (status.ok()) {
      status = Budget::ChargeSets(
          budget, static_cast<int64_t>(from.size()) *
                      static_cast<int64_t>(to.size()));
    }
    if (!status.ok()) return;
    for (int p : from) {
      for (int q : to) follow[p].push_back(q);
    }
  }

  PositionSets Visit(const Regex& regex) {
    PositionSets result;
    if (!status.ok()) return result;
    switch (regex.kind()) {
      case RegexKind::kEmptySet:
        break;
      case RegexKind::kEpsilon:
        result.nullable = true;
        break;
      case RegexKind::kSymbol: {
        int p = NewPosition(regex.symbol());
        result.first = {p};
        result.last = {p};
        break;
      }
      case RegexKind::kConcat: {
        result.nullable = true;
        bool first_open = true;  // all children so far nullable
        std::vector<int> pending_last;
        for (const RegexPtr& child : regex.children()) {
          if (!status.ok()) break;
          PositionSets sets = Visit(*child);
          AddFollow(pending_last, sets.first);
          if (first_open) {
            result.first.insert(result.first.end(), sets.first.begin(),
                                sets.first.end());
          }
          if (!sets.nullable) {
            first_open = false;
            result.nullable = false;
            pending_last = std::move(sets.last);
          } else {
            pending_last.insert(pending_last.end(), sets.last.begin(),
                                sets.last.end());
          }
        }
        result.last = std::move(pending_last);
        break;
      }
      case RegexKind::kUnion: {
        for (const RegexPtr& child : regex.children()) {
          if (!status.ok()) break;
          PositionSets sets = Visit(*child);
          result.nullable = result.nullable || sets.nullable;
          result.first.insert(result.first.end(), sets.first.begin(),
                              sets.first.end());
          result.last.insert(result.last.end(), sets.last.begin(),
                             sets.last.end());
        }
        break;
      }
      case RegexKind::kStar:
      case RegexKind::kPlus:
      case RegexKind::kOptional: {
        PositionSets sets = Visit(*regex.children()[0]);
        if (regex.kind() != RegexKind::kOptional) {
          AddFollow(sets.last, sets.first);
        }
        result.nullable =
            regex.kind() == RegexKind::kPlus ? sets.nullable : true;
        result.first = std::move(sets.first);
        result.last = std::move(sets.last);
        break;
      }
      case RegexKind::kRepeat: {
        // Bounded expansion: r{n,m} = r^n·(r?)^{m-n}, r{n,} = r^{n-1}·r+.
        // Each copy mints fresh positions, so the budget charges in
        // NewPosition/AddFollow bound the expansion cooperatively; the
        // loop stops at the first failed charge. Regex::Repeat normalizes
        // degenerate bounds away, so copies >= 1 here.
        const Regex& child = *regex.children()[0];
        const int min = regex.repeat_min();
        const bool unbounded = regex.repeat_max() == Regex::kUnboundedRepeat;
        const int copies = unbounded ? min : regex.repeat_max();
        result.nullable = true;
        bool first_open = true;
        std::vector<int> pending_last;
        for (int i = 0; i < copies; ++i) {
          if (!status.ok()) break;
          PositionSets sets = Visit(child);
          if (unbounded && i == copies - 1) {
            // The final copy behaves as r+: it may iterate.
            AddFollow(sets.last, sets.first);
          }
          AddFollow(pending_last, sets.first);
          if (first_open) {
            result.first.insert(result.first.end(), sets.first.begin(),
                                sets.first.end());
          }
          const bool copy_nullable = sets.nullable || i >= min;
          if (!copy_nullable) {
            first_open = false;
            result.nullable = false;
            pending_last = std::move(sets.last);
          } else {
            pending_last.insert(pending_last.end(), sets.last.begin(),
                                sets.last.end());
          }
        }
        result.last = std::move(pending_last);
        break;
      }
    }
    return result;
  }
};

// Arc labels during state elimination; nullptr denotes the empty set.
using Arc = RegexPtr;

Arc UnionArcs(const Arc& a, const Arc& b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  // Fold ε into r? / r* where it keeps the output tidy.
  if (a->kind() == RegexKind::kEpsilon) {
    if (b->kind() == RegexKind::kEpsilon) return a;
    if (b->kind() == RegexKind::kStar || b->kind() == RegexKind::kOptional) {
      return b;
    }
    if (b->kind() == RegexKind::kPlus) return Regex::Star(b->children()[0]);
    return Regex::Optional(b);
  }
  if (b->kind() == RegexKind::kEpsilon) return UnionArcs(b, a);
  return Regex::Union({a, b});
}

Arc ConcatArcs(const Arc& a, const Arc& b) {
  if (a == nullptr || b == nullptr) return nullptr;
  if (a->kind() == RegexKind::kEpsilon) return b;
  if (b->kind() == RegexKind::kEpsilon) return a;
  return Regex::Concat({a, b});
}

Arc StarArc(const Arc& a) {
  if (a == nullptr || a->kind() == RegexKind::kEpsilon) {
    return Regex::Epsilon();
  }
  if (a->kind() == RegexKind::kStar) return a;
  return Regex::Star(a);
}

// Precedence levels for printing: union < concat < postfix.
enum Level { kUnionLevel = 0, kConcatLevel = 1, kPostfixLevel = 2 };

void Print(const Regex& regex, const Alphabet& alphabet, int parent_level,
           std::ostringstream& os) {
  auto parenthesize_if = [&](int my_level, auto body) {
    bool need = my_level < parent_level;
    if (need) os << "(";
    body();
    if (need) os << ")";
  };
  switch (regex.kind()) {
    case RegexKind::kEmptySet:
      os << "~";
      break;
    case RegexKind::kEpsilon:
      os << "%";
      break;
    case RegexKind::kSymbol:
      os << alphabet.Name(regex.symbol());
      break;
    case RegexKind::kUnion:
      parenthesize_if(kUnionLevel, [&] {
        for (size_t i = 0; i < regex.children().size(); ++i) {
          if (i > 0) os << " | ";
          Print(*regex.children()[i], alphabet, kUnionLevel + 1, os);
        }
      });
      break;
    case RegexKind::kConcat:
      parenthesize_if(kConcatLevel, [&] {
        for (size_t i = 0; i < regex.children().size(); ++i) {
          if (i > 0) os << " ";
          Print(*regex.children()[i], alphabet, kConcatLevel + 1, os);
        }
      });
      break;
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOptional: {
      Print(*regex.children()[0], alphabet, kPostfixLevel, os);
      os << (regex.kind() == RegexKind::kStar
                 ? "*"
                 : regex.kind() == RegexKind::kPlus ? "+" : "?");
      break;
    }
    case RegexKind::kRepeat: {
      Print(*regex.children()[0], alphabet, kPostfixLevel, os);
      os << "{" << regex.repeat_min();
      if (regex.repeat_max() == Regex::kUnboundedRepeat) {
        os << ",}";
      } else if (regex.repeat_max() == regex.repeat_min()) {
        os << "}";
      } else {
        os << "," << regex.repeat_max() << "}";
      }
      break;
    }
  }
}

}  // namespace

StatusOr<Nfa> FlatGlushkovAutomaton(const Regex& regex, int num_symbols,
                                    Budget* budget) {
  Builder builder;
  builder.budget = budget;
  builder.position_symbol.push_back(kNoSymbol);  // slot for state 0
  builder.follow.emplace_back();
  PositionSets sets = builder.Visit(regex);
  STAP_RETURN_IF_ERROR(builder.status);

  const int num_positions =
      static_cast<int>(builder.position_symbol.size()) - 1;
  Nfa nfa(num_positions + 1, num_symbols);
  nfa.AddInitial(0);
  if (sets.nullable) nfa.SetFinal(0);
  for (int p : sets.last) nfa.SetFinal(p);
  for (int p : sets.first) {
    STAP_CHECK(builder.position_symbol[p] < num_symbols);
    nfa.AddTransition(0, builder.position_symbol[p], p);
  }
  for (int p = 1; p <= num_positions; ++p) {
    for (int q : builder.follow[p]) {
      nfa.AddTransition(p, builder.position_symbol[q], q);
    }
  }
  return nfa;
}

bool IsOneUnambiguous(const Regex& regex, int num_symbols) {
  Nfa glushkov = *FlatGlushkovAutomaton(regex, num_symbols);
  for (int q = 0; q < glushkov.num_states(); ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      if (glushkov.Next(q, a).size() > 1) return false;
    }
  }
  return true;
}

RegexPtr DenseDfaToRegex(const Dfa& input) {
  Dfa dfa = input.Trimmed();
  const int n = dfa.num_states();
  if (dfa.IsEmpty()) return Regex::EmptySet();

  // Nodes 0..n-1 are DFA states, node n is a fresh source, node n+1 a
  // fresh sink; arcs[i][j] is the expression for paths i -> j.
  const int source = n;
  const int sink = n + 1;
  std::vector<std::vector<Arc>> arcs(n + 2, std::vector<Arc>(n + 2, nullptr));
  for (int q = 0; q < n; ++q) {
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState) {
        arcs[q][r] = UnionArcs(arcs[q][r], Regex::Symbol(a));
      }
    }
    if (dfa.IsFinal(q)) arcs[q][sink] = Regex::Epsilon();
  }
  arcs[source][dfa.initial()] = Regex::Epsilon();

  // Eliminate the DFA states one by one.
  std::vector<bool> alive(n + 2, true);
  for (int k = 0; k < n; ++k) {
    alive[k] = false;
    Arc loop = StarArc(arcs[k][k]);
    for (int i = 0; i < n + 2; ++i) {
      if (!alive[i] || arcs[i][k] == nullptr) continue;
      for (int j = 0; j < n + 2; ++j) {
        if (!alive[j] || arcs[k][j] == nullptr) continue;
        Arc through = ConcatArcs(ConcatArcs(arcs[i][k], loop), arcs[k][j]);
        arcs[i][j] = UnionArcs(arcs[i][j], through);
      }
    }
  }

  Arc result = arcs[source][sink];
  return result == nullptr ? Regex::EmptySet() : result;
}

std::string TreeWalkToString(const Regex& regex, const Alphabet& alphabet) {
  std::ostringstream os;
  Print(regex, alphabet, kUnionLevel, os);
  return os.str();
}

}  // namespace stap
