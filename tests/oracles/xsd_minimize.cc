#include "oracles/xsd_minimize.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/schema/reduce.h"

namespace stap {

namespace {

// Removes automaton transitions on symbols that never occur in the source
// state's content language (they can never be exercised by a valid
// document and would otherwise block state merging).
DfaXsd DropUselessTransitions(const DfaXsd& xsd) {
  DfaXsd result = xsd;
  const int num_symbols = xsd.sigma.size();
  const int init = xsd.automaton.initial();
  for (int q = 0; q < xsd.automaton.num_states(); ++q) {
    if (q == init) continue;
    Dfa trimmed = xsd.content[q].Trimmed();
    std::vector<bool> occurs(num_symbols, false);
    for (int s = 0; s < trimmed.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (trimmed.Next(s, a) != kNoState) occurs[a] = true;
      }
    }
    for (int a = 0; a < num_symbols; ++a) {
      if (!occurs[a]) result.automaton.SetTransition(q, a, kNoState);
    }
  }
  // From q_init only start symbols matter.
  for (int a = 0; a < num_symbols; ++a) {
    if (!StateSetContains(xsd.start_symbols, a)) {
      result.automaton.SetTransition(init, a, kNoState);
    }
  }
  return result;
}

// BFS canonical renumbering (q_init becomes state 0).
DfaXsd Canonicalize(const DfaXsd& xsd) {
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  const int init = xsd.automaton.initial();
  std::vector<int> remap(n, kNoState);
  std::vector<int> order = {init};
  remap[init] = 0;
  std::deque<int> queue = {init};
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState && remap[r] == kNoState) {
        remap[r] = static_cast<int>(order.size());
        order.push_back(r);
        queue.push_back(r);
      }
    }
  }
  DfaXsd result;
  result.sigma = xsd.sigma;
  result.start_symbols = xsd.start_symbols;
  result.automaton = Dfa(static_cast<int>(order.size()), num_symbols);
  result.automaton.SetInitial(0);
  result.state_label.resize(order.size());
  result.content.resize(order.size(), Dfa::EmptyLanguage(num_symbols));
  if (!xsd.content_source.empty()) result.content_source.resize(order.size());
  for (int q : order) {
    result.state_label[remap[q]] = xsd.state_label[q];
    result.content[remap[q]] = xsd.content[q];
    if (!xsd.content_source.empty()) {
      result.content_source[remap[q]] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState && remap[r] != kNoState) {
        result.automaton.SetTransition(remap[q], a, remap[r]);
      }
    }
  }
  return result;
}

}  // namespace

Edtd StEdtdFromDfaXsdViaStEdtd(const DfaXsd& xsd) {
  xsd.CheckWellFormed();
  const int num_states = xsd.automaton.num_states();
  const int init = xsd.automaton.initial();

  std::vector<int> type_of_state(num_states, -1);
  std::vector<int> state_of_type;
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    type_of_state[q] = static_cast<int>(state_of_type.size());
    state_of_type.push_back(q);
  }
  const int num_types = static_cast<int>(state_of_type.size());

  Edtd edtd;
  edtd.sigma = xsd.sigma;
  for (int q : state_of_type) {
    edtd.types.Intern(xsd.sigma.Name(xsd.state_label[q]) + "@" +
                      std::to_string(q));
    edtd.mu.push_back(xsd.state_label[q]);
  }
  for (int a : xsd.start_symbols) {
    int q = xsd.automaton.Next(init, a);
    if (q != kNoState) StateSetInsert(edtd.start_types, type_of_state[q]);
  }
  for (int q : state_of_type) {
    // Symbol a becomes the unique type reached via δ(q, a).
    std::vector<int> type_to_symbol(num_types, kNoSymbol);
    for (int tau = 0; tau < num_types; ++tau) {
      int a = xsd.state_label[state_of_type[tau]];
      if (xsd.automaton.Next(q, a) == state_of_type[tau]) {
        type_to_symbol[tau] = a;
      }
    }
    edtd.content.push_back(*Minimize(
        InverseHomomorphism(xsd.content[q], type_to_symbol, num_types)));
    if (!xsd.content_source.empty()) {
      std::vector<int> symbol_to_type(xsd.sigma.size(), kNoSymbol);
      for (int a = 0; a < xsd.sigma.size(); ++a) {
        int next = xsd.automaton.Next(q, a);
        if (next != kNoState) symbol_to_type[a] = type_of_state[next];
      }
      edtd.content_source.push_back(
          xsd.content_source[q] == nullptr
              ? nullptr
              : Regex::Substitute(xsd.content_source[q], symbol_to_type));
    }
  }
  edtd.CheckWellFormed();
  return edtd;
}

DfaXsd MinimizeXsdViaStEdtd(const DfaXsd& input) {
  Edtd reduced = ReduceEdtd(StEdtdFromDfaXsdViaStEdtd(input));
  DfaXsd xsd = DropUselessTransitions(DfaXsdFromStEdtd(reduced));
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();

  // Initial partition by (label, content DFA text); q_init alone.
  std::unordered_map<std::string, int> block_ids;
  std::vector<int> block(n);
  block[0] = 0;
  block_ids.emplace("", 0);
  for (int q = 1; q < n; ++q) {
    std::string key =
        std::to_string(xsd.state_label[q]) + "\n" + xsd.content[q].ToString();
    auto [it, inserted] = block_ids.emplace(std::move(key), block_ids.size());
    block[q] = it->second;
  }
  int num_blocks = static_cast<int>(block_ids.size());

  // Moore rounds over successor blocks.
  while (true) {
    std::unordered_map<std::string, int> signature_ids;
    std::vector<int> next_block(n);
    for (int q = 0; q < n; ++q) {
      std::string signature = std::to_string(block[q]);
      for (int a = 0; a < num_symbols; ++a) {
        int r = xsd.automaton.Next(q, a);
        signature += "," + std::to_string(r == kNoState ? -1 : block[r]);
      }
      auto [it, inserted] =
          signature_ids.emplace(std::move(signature), signature_ids.size());
      next_block[q] = it->second;
    }
    int next_num = static_cast<int>(signature_ids.size());
    block = std::move(next_block);
    if (next_num == num_blocks) break;
    num_blocks = next_num;
  }

  DfaXsd quotient;
  quotient.sigma = xsd.sigma;
  quotient.start_symbols = xsd.start_symbols;
  std::vector<int> block_state(num_blocks, kNoState);
  int next_id = 0;
  block_state[block[0]] = next_id++;
  for (int q = 1; q < n; ++q) {
    if (block_state[block[q]] == kNoState) block_state[block[q]] = next_id++;
  }
  quotient.automaton = Dfa(num_blocks, num_symbols);
  quotient.automaton.SetInitial(0);
  quotient.state_label.assign(num_blocks, kNoSymbol);
  quotient.content.assign(num_blocks, Dfa::EmptyLanguage(num_symbols));
  if (!xsd.content_source.empty()) quotient.content_source.resize(num_blocks);
  for (int q = 0; q < n; ++q) {
    int b = block_state[block[q]];
    quotient.state_label[b] = xsd.state_label[q];
    quotient.content[b] = xsd.content[q];
    if (!xsd.content_source.empty() && xsd.content_source[q] != nullptr) {
      quotient.content_source[b] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState) {
        quotient.automaton.SetTransition(b, a, block_state[block[r]]);
      }
    }
  }
  DfaXsd result = Canonicalize(quotient);
  result.CheckWellFormed();
  return result;
}

}  // namespace stap
