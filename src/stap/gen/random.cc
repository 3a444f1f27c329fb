#include "stap/gen/random.h"

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/regex/ast.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"

namespace stap {

namespace {

int Pick(std::mt19937* rng, int bound) {
  STAP_CHECK(bound > 0);
  return static_cast<int>((*rng)() % static_cast<uint32_t>(bound));
}

bool Chance(std::mt19937* rng, int percent) {
  return Pick(rng, 100) < percent;
}

// A counted content model  u x{n,m} v  (optionally | ε) over `allowed`,
// compiled through the Glushkov pipeline with its kRepeat provenance.
std::pair<Dfa, RegexPtr> RandomRepeatContent(std::mt19937* rng,
                                             int num_symbols,
                                             const std::vector<int>& allowed,
                                             int epsilon_percent) {
  STAP_CHECK(!allowed.empty());
  auto pick_symbol = [&] {
    return allowed[Pick(rng, static_cast<int>(allowed.size()))];
  };
  std::vector<RegexPtr> parts;
  if (Chance(rng, 40)) parts.push_back(Regex::Symbol(pick_symbol()));
  // Keep the bounds outside the shapes the Repeat factory folds into
  // ?/*/+ ({0,1}, {1,1}), so the content model carries a real kRepeat.
  const int min = Pick(rng, 3);
  const int max = min + (min == 0 ? 2 : 1) + Pick(rng, 3);
  parts.push_back(Regex::Repeat(Regex::Symbol(pick_symbol()), min, max));
  if (Chance(rng, 40)) parts.push_back(Regex::Symbol(pick_symbol()));
  RegexPtr regex = Regex::Concat(std::move(parts));
  if (Chance(rng, epsilon_percent)) {
    std::vector<RegexPtr> alternatives;
    alternatives.push_back(Regex::Epsilon());
    alternatives.push_back(std::move(regex));
    regex = Regex::Union(std::move(alternatives));
  }
  Dfa dfa = *RegexToDfa(*regex, num_symbols);
  return {std::move(dfa), std::move(regex)};
}

// Distance (in symbols) from every state to acceptance; -1 if none.
std::vector<int> DistanceToFinal(const Dfa& dfa) {
  std::vector<int> dist(dfa.num_states(), -1);
  std::deque<int> queue;
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) {
      dist[q] = 0;
      queue.push_back(q);
    }
  }
  // Reverse BFS.
  std::vector<std::vector<int>> reverse(dfa.num_states());
  for (int q = 0; q < dfa.num_states(); ++q) {
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState) reverse[r].push_back(q);
    }
  }
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int p : reverse[q]) {
      if (dist[p] < 0) {
        dist[p] = dist[q] + 1;
        queue.push_back(p);
      }
    }
  }
  return dist;
}

// Minimal witness trees per XSD state (bottom-up productivity fixpoint);
// absent entries are unproductive states.
std::vector<std::optional<Tree>> WitnessTrees(const DfaXsd& xsd) {
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  std::vector<std::optional<Tree>> witness(n);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int q = 1; q < n; ++q) {
      if (witness[q].has_value()) continue;
      // Restrict content[q] to symbols whose child state already has a
      // witness and take a shortest word.
      const Dfa& content = xsd.content[q];
      Dfa restricted(content.num_states(), num_symbols);
      if (content.num_states() == 0) continue;
      restricted.SetInitial(content.initial());
      for (int s = 0; s < content.num_states(); ++s) {
        if (content.IsFinal(s)) restricted.SetFinal(s);
        for (int a = 0; a < num_symbols; ++a) {
          int child_state = xsd.automaton.Next(q, a);
          if (child_state == kNoState || !witness[child_state].has_value()) {
            continue;
          }
          int r = content.Next(s, a);
          if (r != kNoState) restricted.SetTransition(s, a, r);
        }
      }
      Word word;
      if (!restricted.ShortestWord(&word)) continue;
      Tree tree(xsd.state_label[q]);
      for (int a : word) {
        tree.children.push_back(*witness[xsd.automaton.Next(q, a)]);
      }
      witness[q] = std::move(tree);
      changed = true;
    }
  }
  return witness;
}

Tree SampleAt(const DfaXsd& xsd, int state, int depth, int max_depth,
              const std::vector<std::optional<Tree>>& witness,
              std::mt19937* rng) {
  if (depth >= max_depth) return *witness[state];
  // Sample a child word that only uses productive child states.
  const Dfa& content = xsd.content[state];
  std::vector<bool> productive_symbol(xsd.sigma.size(), false);
  for (int a = 0; a < xsd.sigma.size(); ++a) {
    int child = xsd.automaton.Next(state, a);
    productive_symbol[a] = child != kNoState && witness[child].has_value();
  }
  Dfa restricted(content.num_states(), xsd.sigma.size());
  restricted.SetInitial(content.initial());
  for (int s = 0; s < content.num_states(); ++s) {
    if (content.IsFinal(s)) restricted.SetFinal(s);
    for (int a = 0; a < xsd.sigma.size(); ++a) {
      if (!productive_symbol[a]) continue;
      int r = content.Next(s, a);
      if (r != kNoState) restricted.SetTransition(s, a, r);
    }
  }
  std::optional<Word> word = SampleWord(restricted, rng, max_depth - depth);
  STAP_CHECK(word.has_value());  // state is productive
  Tree tree(xsd.state_label[state]);
  for (int a : *word) {
    tree.children.push_back(SampleAt(xsd, xsd.automaton.Next(state, a),
                                     depth + 1, max_depth, witness, rng));
  }
  return tree;
}

}  // namespace

Nfa RandomNfa(std::mt19937* rng, int num_states, int num_symbols,
              int transitions_per_state) {
  STAP_CHECK(num_states >= 1 && num_symbols >= 1);
  STAP_CHECK(transitions_per_state >= 0);
  Nfa nfa(num_states, num_symbols);
  nfa.AddInitial(Pick(rng, num_states));
  for (int q = 0; q < num_states; ++q) {
    if (Chance(rng, 30)) nfa.SetFinal(q);
    for (int i = 0; i < transitions_per_state; ++i) {
      nfa.AddTransition(q, Pick(rng, num_symbols), Pick(rng, num_states));
    }
  }
  nfa.SetFinal(Pick(rng, num_states));  // the language must be inhabited
  return nfa;
}

std::optional<Word> SampleWord(const Dfa& dfa, std::mt19937* rng,
                               int soft_length) {
  if (dfa.num_states() == 0) return std::nullopt;
  std::vector<int> dist = DistanceToFinal(dfa);
  if (dist[dfa.initial()] < 0) return std::nullopt;
  Word word;
  int state = dfa.initial();
  while (true) {
    bool must_shorten = static_cast<int>(word.size()) >= soft_length;
    if (dfa.IsFinal(state) && (must_shorten || Chance(rng, 40))) return word;
    // Candidate transitions that can still reach acceptance; under the
    // soft cap, only those that strictly decrease the distance.
    std::vector<int> candidates;
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(state, a);
      if (r == kNoState || dist[r] < 0) continue;
      if (must_shorten && dist[r] >= dist[state]) continue;
      candidates.push_back(a);
    }
    if (candidates.empty()) {
      STAP_CHECK(dfa.IsFinal(state));  // dist == 0 and no shrinking move
      return word;
    }
    int a = candidates[Pick(rng, static_cast<int>(candidates.size()))];
    word.push_back(a);
    state = dfa.Next(state, a);
  }
}

namespace {

Tree SampleUniformAt(const DfaXsd& xsd, const XsdSizeTables& tables, int q,
                     int size, std::mt19937* rng);

// Extends `out` with a forest of total size r completing content[q] from
// state cs, each completion drawn with probability 1 / forests[q][cs][r].
void SampleUniformForest(const DfaXsd& xsd, const XsdSizeTables& tables,
                         int q, int cs, int r, std::mt19937* rng,
                         std::vector<Tree>* out) {
  if (r == 0) return;  // the empty forest is the only size-0 completion
  const Dfa& content = xsd.content[q];
  BigNat target = BigNat::RandomBelow(tables.forests[q][cs][r], rng);
  BigNat acc;
  for (int a = 0; a < xsd.sigma.size(); ++a) {
    const int cs_next = content.Next(cs, a);
    const int child = xsd.automaton.Next(q, a);
    if (cs_next == kNoState || child == kNoState) continue;
    for (int k = 1; k <= r; ++k) {
      const BigNat& head = tables.trees[child][k];
      const BigNat& rest = tables.forests[q][cs_next][r - k];
      if (head.IsZero() || rest.IsZero()) continue;
      acc = BigNat::Add(acc, BigNat::Mul(head, rest));
      if (BigNat::Compare(target, acc) < 0) {
        out->push_back(SampleUniformAt(xsd, tables, child, k, rng));
        SampleUniformForest(xsd, tables, q, cs_next, r - k, rng, out);
        return;
      }
    }
  }
  STAP_CHECK(false);  // the (a, k) weights sum to forests[q][cs][r]
}

Tree SampleUniformAt(const DfaXsd& xsd, const XsdSizeTables& tables, int q,
                     int size, std::mt19937* rng) {
  Tree tree(xsd.state_label[q]);
  SampleUniformForest(xsd, tables, q, xsd.content[q].initial(), size - 1,
                      rng, &tree.children);
  return tree;
}

}  // namespace

std::optional<Tree> SampleTreeUniform(const DfaXsd& xsd,
                                      const XsdSizeTables& tables,
                                      int num_nodes, std::mt19937* rng) {
  STAP_CHECK(num_nodes >= 0 && num_nodes <= tables.max_size);
  if (num_nodes == 0 || tables.totals[num_nodes].IsZero()) {
    return std::nullopt;
  }
  BigNat target = BigNat::RandomBelow(tables.totals[num_nodes], rng);
  BigNat acc;
  for (int a : xsd.start_symbols) {
    const int q = xsd.automaton.Next(xsd.automaton.initial(), a);
    if (q == kNoState) continue;
    acc = BigNat::Add(acc, tables.trees[q][num_nodes]);
    if (BigNat::Compare(target, acc) < 0) {
      return SampleUniformAt(xsd, tables, q, num_nodes, rng);
    }
  }
  STAP_CHECK(false);  // per-root weights sum to totals[num_nodes]
  return std::nullopt;
}

std::optional<Tree> SampleTree(const DfaXsd& xsd, std::mt19937* rng,
                               int max_depth) {
  std::vector<std::optional<Tree>> witness = WitnessTrees(xsd);
  std::vector<int> roots;
  for (int a : xsd.start_symbols) {
    int q = xsd.automaton.Next(xsd.automaton.initial(), a);
    if (q != kNoState && witness[q].has_value()) roots.push_back(q);
  }
  if (roots.empty()) return std::nullopt;
  int root = roots[Pick(rng, static_cast<int>(roots.size()))];
  return SampleAt(xsd, root, 1, std::max(max_depth, 1), witness, rng);
}

Edtd RandomEdtd(std::mt19937* rng, const RandomSchemaParams& params) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    Edtd edtd;
    for (int a = 0; a < params.num_symbols; ++a) {
      edtd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
    }
    for (int tau = 0; tau < params.num_types; ++tau) {
      edtd.types.Intern("t" + std::to_string(tau));
      edtd.mu.push_back(Pick(rng, params.num_symbols));
    }
    if (params.repeat_percent > 0) {
      edtd.content_source.assign(params.num_types, nullptr);
    }
    std::vector<int> all_types(params.num_types);
    for (int tau = 0; tau < params.num_types; ++tau) all_types[tau] = tau;
    for (int tau = 0; tau < params.num_types; ++tau) {
      if (params.repeat_percent > 0 && Chance(rng, params.repeat_percent)) {
        auto [dfa, regex] = RandomRepeatContent(
            rng, params.num_types, all_types, params.epsilon_percent);
        edtd.content.push_back(std::move(dfa));
        edtd.content_source[tau] = std::move(regex);
        continue;
      }
      // Content: a few random words over random types.
      std::vector<Word> words;
      if (Chance(rng, params.epsilon_percent)) words.push_back({});
      int num_words = 1 + Pick(rng, 2);
      for (int w = 0; w < num_words; ++w) {
        Word word;
        int length = 1 + Pick(rng, params.content_breadth);
        for (int i = 0; i < length; ++i) {
          word.push_back(Pick(rng, params.num_types));
        }
        words.push_back(std::move(word));
      }
      edtd.content.push_back(
          *Minimize(Dfa::FromWords(words, params.num_types)));
    }
    int num_starts = 1 + Pick(rng, 2);
    for (int s = 0; s < num_starts; ++s) {
      StateSetInsert(edtd.start_types, Pick(rng, params.num_types));
    }
    Edtd reduced = ReduceEdtd(edtd);
    if (reduced.num_types() > 0) return reduced;
  }
  // Fall back to a trivial non-empty schema.
  Edtd edtd;
  edtd.sigma.Intern("a");
  edtd.types.Intern("t0");
  edtd.mu.push_back(0);
  edtd.content.push_back(Dfa::EpsilonOnly(1));
  edtd.start_types.push_back(0);
  return edtd;
}

Edtd RandomFiniteEdtd(std::mt19937* rng, const RandomSchemaParams& params) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    Edtd edtd;
    for (int a = 0; a < params.num_symbols; ++a) {
      edtd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
    }
    const int n = params.num_types;
    for (int tau = 0; tau < n; ++tau) {
      edtd.types.Intern("t" + std::to_string(tau));
      edtd.mu.push_back(Pick(rng, params.num_symbols));
    }
    for (int tau = 0; tau < n; ++tau) {
      // Content words reference only strictly higher type ids (DAG).
      std::vector<Word> words;
      if (tau == n - 1 || Chance(rng, params.epsilon_percent)) {
        words.push_back({});
      }
      if (tau < n - 1) {
        int num_words = 1 + Pick(rng, 2);
        for (int w = 0; w < num_words; ++w) {
          Word word;
          int length = 1 + Pick(rng, params.content_breadth);
          for (int i = 0; i < length; ++i) {
            word.push_back(tau + 1 + Pick(rng, n - tau - 1));
          }
          words.push_back(std::move(word));
        }
      }
      edtd.content.push_back(*Minimize(Dfa::FromWords(words, n)));
    }
    int num_starts = 1 + Pick(rng, 2);
    for (int s = 0; s < num_starts; ++s) {
      StateSetInsert(edtd.start_types, Pick(rng, std::max(1, n / 2)));
    }
    Edtd reduced = ReduceEdtd(edtd);
    if (reduced.num_types() > 0) return reduced;
  }
  Edtd edtd;
  edtd.sigma.Intern("a");
  edtd.types.Intern("t0");
  edtd.mu.push_back(0);
  edtd.content.push_back(Dfa::EpsilonOnly(1));
  edtd.start_types.push_back(0);
  return edtd;
}

Edtd RandomNonRecursiveStEdtd(std::mt19937* rng,
                              const RandomSchemaParams& params,
                              bool finite_language) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int num_symbols = params.num_symbols;
    const int num_states = params.num_types + 1;  // with q_init

    DfaXsd xsd;
    for (int a = 0; a < num_symbols; ++a) {
      xsd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
    }
    xsd.automaton = Dfa(num_states, num_symbols);
    xsd.automaton.SetInitial(0);
    xsd.state_label.assign(num_states, kNoSymbol);
    for (int q = 1; q < num_states; ++q) {
      xsd.state_label[q] = Pick(rng, num_symbols);
    }
    // Acyclic skeleton: transitions only go from lower to strictly higher
    // state ids, so the type graph is a DAG.
    for (int q = 1; q < num_states; ++q) {
      int parent = Pick(rng, q);
      xsd.automaton.SetTransition(parent, xsd.state_label[q], q);
    }
    for (int q = 0; q < num_states; ++q) {
      for (int a = 0; a < num_symbols; ++a) {
        if (xsd.automaton.Next(q, a) != kNoState || !Chance(rng, 30)) {
          continue;
        }
        std::vector<int> candidates;
        for (int r = q + 1; r < num_states; ++r) {
          if (xsd.state_label[r] == a) candidates.push_back(r);
        }
        if (!candidates.empty()) {
          xsd.automaton.SetTransition(
              q, a,
              candidates[Pick(rng, static_cast<int>(candidates.size()))]);
        }
      }
    }
    for (int a = 0; a < num_symbols; ++a) {
      if (xsd.automaton.Next(xsd.automaton.initial(), a) != kNoState) {
        StateSetInsert(xsd.start_symbols, a);
      }
    }
    xsd.content.resize(num_states, Dfa::EmptyLanguage(num_symbols));
    for (int q = 1; q < num_states; ++q) {
      std::vector<int> allowed;
      for (int a = 0; a < num_symbols; ++a) {
        if (xsd.automaton.Next(q, a) != kNoState) allowed.push_back(a);
      }
      std::vector<Word> words;
      if (allowed.empty() || Chance(rng, params.epsilon_percent)) {
        words.push_back({});
      }
      if (!allowed.empty()) {
        int num_words = 1 + Pick(rng, 2);
        for (int w = 0; w < num_words; ++w) {
          Word word;
          int length = 1 + Pick(rng, params.content_breadth);
          for (int i = 0; i < length; ++i) {
            word.push_back(
                allowed[Pick(rng, static_cast<int>(allowed.size()))]);
          }
          words.push_back(std::move(word));
        }
      }
      Dfa content = *Minimize(Dfa::FromWords(words, num_symbols));
      if (!finite_language && !allowed.empty() && Chance(rng, 30)) {
        // Allow unbounded repetition of one child label while keeping the
        // DAG type structure (depth stays bounded, width does not).
        int a = allowed[Pick(rng, static_cast<int>(allowed.size()))];
        Nfa star(1, num_symbols);
        star.AddInitial(0);
        star.SetFinal(0);
        star.AddTransition(0, a, 0);
        content = *MinimizeNfa(NfaUnion(content.ToNfa(), star));
      }
      xsd.content[q] = content;
    }
    xsd.CheckWellFormed();
    Edtd reduced = ReduceEdtd(StEdtdFromDfaXsd(xsd));
    if (reduced.num_types() > 0) return reduced;
  }
  Edtd edtd;
  edtd.sigma.Intern("a");
  edtd.types.Intern("t0");
  edtd.mu.push_back(0);
  edtd.content.push_back(Dfa::EpsilonOnly(1));
  edtd.start_types.push_back(0);
  return edtd;
}

Edtd RandomStEdtd(std::mt19937* rng, const RandomSchemaParams& params) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int num_symbols = params.num_symbols;
    const int num_states = params.num_types + 1;  // with q_init

    DfaXsd xsd;
    for (int a = 0; a < num_symbols; ++a) {
      xsd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
    }
    xsd.automaton = Dfa(num_states, num_symbols);
    xsd.automaton.SetInitial(0);
    xsd.state_label.assign(num_states, kNoSymbol);
    for (int q = 1; q < num_states; ++q) {
      xsd.state_label[q] = Pick(rng, num_symbols);
    }
    // Spanning structure for reachability (never targeting q_init), then
    // extra random edges; state-labeledness is maintained throughout.
    for (int q = 1; q < num_states; ++q) {
      int parent = Pick(rng, q);  // 0..q-1
      xsd.automaton.SetTransition(parent, xsd.state_label[q], q);
    }
    for (int q = 0; q < num_states; ++q) {
      for (int a = 0; a < num_symbols; ++a) {
        if (xsd.automaton.Next(q, a) != kNoState || !Chance(rng, 30)) {
          continue;
        }
        std::vector<int> candidates;
        for (int r = 1; r < num_states; ++r) {
          if (xsd.state_label[r] == a) candidates.push_back(r);
        }
        if (!candidates.empty()) {
          xsd.automaton.SetTransition(
              q, a, candidates[Pick(rng, static_cast<int>(candidates.size()))]);
        }
      }
    }
    for (int a = 0; a < num_symbols; ++a) {
      if (xsd.automaton.Next(xsd.automaton.initial(), a) != kNoState) {
        StateSetInsert(xsd.start_symbols, a);
      }
    }
    // Content models over the locally available labels.
    xsd.content.resize(num_states, Dfa::EmptyLanguage(num_symbols));
    if (params.repeat_percent > 0) {
      xsd.content_source.assign(num_states, nullptr);
    }
    for (int q = 1; q < num_states; ++q) {
      std::vector<int> allowed;
      for (int a = 0; a < num_symbols; ++a) {
        if (xsd.automaton.Next(q, a) != kNoState) allowed.push_back(a);
      }
      if (!allowed.empty() && params.repeat_percent > 0 &&
          Chance(rng, params.repeat_percent)) {
        auto [dfa, regex] = RandomRepeatContent(rng, num_symbols, allowed,
                                                params.epsilon_percent);
        xsd.content[q] = std::move(dfa);
        xsd.content_source[q] = std::move(regex);
        continue;
      }
      std::vector<Word> words;
      if (allowed.empty() || Chance(rng, params.epsilon_percent)) {
        words.push_back({});
      }
      if (!allowed.empty()) {
        int num_words = 1 + Pick(rng, 2);
        for (int w = 0; w < num_words; ++w) {
          Word word;
          int length = 1 + Pick(rng, params.content_breadth);
          for (int i = 0; i < length; ++i) {
            word.push_back(allowed[Pick(rng,
                                        static_cast<int>(allowed.size()))]);
          }
          words.push_back(std::move(word));
        }
      }
      xsd.content[q] = *Minimize(Dfa::FromWords(words, num_symbols));
    }
    xsd.CheckWellFormed();
    Edtd reduced = ReduceEdtd(StEdtdFromDfaXsd(xsd));
    if (reduced.num_types() > 0) return reduced;
  }
  Edtd edtd;
  edtd.sigma.Intern("a");
  edtd.types.Intern("t0");
  edtd.mu.push_back(0);
  edtd.content.push_back(Dfa::EpsilonOnly(1));
  edtd.start_types.push_back(0);
  return edtd;
}

}  // namespace stap
