#include "stap/gen/families.h"

#include <string>

#include "stap/base/check.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/builder.h"

namespace stap {

Edtd UnaryEdtdFromRegex(const Regex& regex, const Alphabet& sigma) {
  // The Glushkov automaton is state-labeled: position states become types
  // whose μ is the position's symbol; a unary tree spells a word top-down.
  Nfa glushkov = *GlushkovAutomaton(regex, sigma.size());

  Edtd edtd;
  edtd.sigma = sigma;
  const int positions = glushkov.num_states() - 1;  // state 0 is initial
  // Determine each position's symbol from its (unique) incoming label.
  std::vector<int> position_symbol(positions + 1, kNoSymbol);
  for (int q = 0; q <= positions; ++q) {
    for (int a = 0; a < sigma.size(); ++a) {
      for (int r : glushkov.Next(q, a)) {
        STAP_CHECK(position_symbol[r] == kNoSymbol ||
                   position_symbol[r] == a);
        position_symbol[r] = a;
      }
    }
  }
  for (int p = 1; p <= positions; ++p) {
    STAP_CHECK(position_symbol[p] != kNoSymbol);  // regex is trim
    edtd.types.Intern("pos" + std::to_string(p));
    edtd.mu.push_back(position_symbol[p]);
  }
  // Content of position p: exactly one child typed by a follow position,
  // or ε when p is a Glushkov final state.
  for (int p = 1; p <= positions; ++p) {
    Dfa content(2, positions);
    content.SetFinal(1);
    if (glushkov.IsFinal(p)) content.SetFinal(0);
    for (int a = 0; a < sigma.size(); ++a) {
      for (int r : glushkov.Next(p, a)) {
        content.SetTransition(0, r - 1, 1);
      }
    }
    edtd.content.push_back(std::move(content));
  }
  for (int a = 0; a < sigma.size(); ++a) {
    for (int r : glushkov.Next(0, a)) {
      StateSetInsert(edtd.start_types, r - 1);
    }
  }
  edtd.CheckWellFormed();
  return edtd;
}

Edtd Theorem32Family(int n) {
  STAP_CHECK(n >= 1);
  // (a+b)* a (a+b)^n over the unary-tree encoding.
  Alphabet sigma({"a", "b"});
  RegexPtr ab = Regex::Union({Regex::Symbol(0), Regex::Symbol(1)});
  std::vector<RegexPtr> parts;
  parts.push_back(Regex::Star(ab));
  parts.push_back(Regex::Symbol(0));
  for (int i = 0; i < n; ++i) parts.push_back(ab);
  return UnaryEdtdFromRegex(*Regex::Concat(std::move(parts)), sigma);
}

std::pair<Edtd, Edtd> Theorem36Family(int n) {
  STAP_CHECK(n >= 1);
  // D1: unary trees with at most n a-labeled nodes. τa_i / τb_i track the
  // number of a's consumed so far.
  auto build = [n](const std::string& heavy, const std::string& light) {
    SchemaBuilder builder;
    // H_i: a heavy node that is the (i+1)-th heavy one on the path
    // (declared for i < n); L_i: a light node below i heavy ones.
    for (int i = 0; i < n; ++i) {
      std::string content = "L" + std::to_string(i + 1) + " | %";
      if (i + 1 < n) content = "H" + std::to_string(i + 1) + " | " + content;
      builder.AddType("H" + std::to_string(i), heavy, content);
    }
    for (int i = 0; i <= n; ++i) {
      std::string content = "L" + std::to_string(i) + " | %";
      if (i < n) content = "H" + std::to_string(i) + " | " + content;
      builder.AddType("L" + std::to_string(i), light, content);
    }
    builder.AddStart("H0");
    builder.AddStart("L0");
    return builder.Build();
  };
  return {build("a", "b"), build("b", "a")};
}

namespace {

bool IsPrime(int value) {
  if (value < 2) return false;
  for (int d = 2; d * d <= value; ++d) {
    if (value % d == 0) return false;
  }
  return true;
}

int NextPrime(int value) {
  int candidate = value + 1;
  while (!IsPrime(candidate)) ++candidate;
  return candidate;
}

Edtd CyclicChainSchema(int period) {
  SchemaBuilder builder;
  for (int i = 0; i < period; ++i) {
    std::string next = "C" + std::to_string((i + 1) % period);
    std::string content = i == period - 1 ? next + " | %" : next;
    builder.AddType("C" + std::to_string(i), "a", content);
  }
  builder.AddStart("C0");
  return builder.Build();
}

}  // namespace

std::pair<Edtd, Edtd> Theorem38Family(int n) {
  STAP_CHECK(n >= 1);
  int p1 = NextPrime(n);
  int p2 = NextPrime(p1);
  return {CyclicChainSchema(p1), CyclicChainSchema(p2)};
}

std::pair<Edtd, Edtd> Theorem43Schemas() {
  SchemaBuilder d1;
  d1.AddType("A", "a", "A | B");
  d1.AddType("B", "b", "%");
  d1.AddStart("A");

  SchemaBuilder d2;
  d2.AddType("A", "a", "A | A A | %");
  d2.AddStart("A");
  return {d1.Build(), d2.Build()};
}

Edtd Theorem43LowerApproximation(int n) {
  STAP_CHECK(n >= 1);
  SchemaBuilder builder;
  for (int i = 0; i < n - 1; ++i) {
    builder.AddType("A" + std::to_string(i), "a",
                    "A" + std::to_string(i + 1) + " | B | %");
  }
  std::string an = "A" + std::to_string(n);
  builder.AddType("A" + std::to_string(n - 1), "a",
                  an + " | " + an + " " + an + " | B | %");
  builder.AddType(an, "a", an + " | " + an + " " + an + " | %");
  builder.AddType("B", "b", "%");
  builder.AddStart("A0");
  return builder.Build();
}

Edtd Theorem411Dtd() {
  SchemaBuilder builder;
  builder.AddType("A", "a", "A | %");
  builder.AddStart("A");
  return builder.Build();
}

Edtd Theorem411LowerApproximation(int n) {
  STAP_CHECK(n >= 1);
  SchemaBuilder builder;
  // Unary spine down to depth n, a branching node (>= 2 children) at
  // depth n, arbitrary a-trees below.
  for (int i = 1; i < n; ++i) {
    builder.AddType("X" + std::to_string(i), "a", "X" + std::to_string(i + 1));
  }
  std::string deep = "X" + std::to_string(n + 1);
  builder.AddType("X" + std::to_string(n), "a", deep + " " + deep + "+");
  builder.AddType(deep, "a", deep + "*");
  builder.AddStart("X1");
  return builder.Build();
}

Edtd Example26Edtd() {
  SchemaBuilder builder;
  builder.AddType("t1", "a", "t1 | t2x");
  builder.AddType("t2x", "b", "t2y | %");
  builder.AddType("t2y", "b", "t1 | t2y | %");
  builder.AddStart("t1");
  return builder.Build();
}

Edtd CountedFamily(int min_items, int max_items) {
  STAP_CHECK(min_items >= 0);
  STAP_CHECK(max_items >= min_items);
  STAP_CHECK(max_items >= 1);
  SchemaBuilder builder;
  builder.AddType("Doc", "doc",
                  "Header Item{" + std::to_string(min_items) + "," +
                      std::to_string(max_items) + "} Footer?");
  builder.AddType("Header", "header", "%");
  builder.AddType("Item", "item", "Field{1,3}");
  builder.AddType("Field", "field", "%");
  builder.AddType("Footer", "footer", "%");
  builder.AddStart("Doc");
  return builder.Build();
}

}  // namespace stap
