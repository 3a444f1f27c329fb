#include "stap/schema/minimize.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

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

DfaXsd MinimizeXsd(const DfaXsd& input) {
  StatusOr<DfaXsd> result = MinimizeXsd(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& input, Budget* budget) {
  ScopedSpan span("schema.minimize_xsd");
  // Step 1: reduce through the EDTD view; this prunes unproductive and
  // unreachable states and canonicalizes every content DFA.
  Edtd reduced = ReduceEdtd(StEdtdFromDfaXsd(input));
  DfaXsd xsd = DropUselessTransitions(DfaXsdFromStEdtd(reduced));
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  // Charge what step 1 materialized: the reduced automaton and its
  // canonical content DFAs. The refinement below never adds states.
  int64_t states_built = n;
  for (const Dfa& content : xsd.content) states_built += content.num_states();
  STAP_RETURN_IF_ERROR(Budget::ChargeStates(budget, states_built));

  // Step 2: initial partition by (label, content language). Content DFAs
  // are canonical minimal automata here, so structural equality decides
  // language equality. q_init always forms its own block.
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

  // Step 3: refine by successor blocks until stable (signatures interned
  // as views into one reused buffer, as in automata/minimize.cc).
  // Refinement never grows the state count, so only the wall-clock
  // deadline can exhaust; checked once per round.
  const size_t width = static_cast<size_t>(num_symbols) + 1;
  std::vector<int> signatures(width * n);
  while (true) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    Interner<IntSpanKey, IntSpanKeyHash> signature_ids(n);
    std::vector<int> next_block(n);
    for (int q = 0; q < n; ++q) {
      int* signature = signatures.data() + width * q;
      signature[0] = block[q];
      for (int a = 0; a < num_symbols; ++a) {
        int r = xsd.automaton.Next(q, a);
        signature[a + 1] = r == kNoState ? -1 : block[r];
      }
      next_block[q] = signature_ids.Intern({signature, width}).first;
    }
    int next_num = signature_ids.size();
    block = std::move(next_block);
    if (next_num == num_blocks) break;
    num_blocks = next_num;
  }

  // Step 4: build the quotient.
  DfaXsd quotient;
  quotient.sigma = xsd.sigma;
  quotient.start_symbols = xsd.start_symbols;
  // Renumber blocks so that q_init's block is 0.
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
      // Merged states share one content language (the initial partition
      // keys on it), so any member's provenance serves the block.
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
  span.AddArg("xsd_states", result.automaton.num_states());
  return result;
}

bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b) {
  return a.sigma == b.sigma && a.start_symbols == b.start_symbols &&
         a.automaton == b.automaton && a.state_label == b.state_label &&
         a.content == b.content;
}

}  // namespace stap
