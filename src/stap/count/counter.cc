#include "stap/count/counter.h"

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

Status CheckBounds(const CountBounds& bounds) {
  if (bounds.max_depth < 1 || bounds.max_width < 0) {
    return InvalidArgumentError(
        "count bounds require max_depth >= 1 and max_width >= 0");
  }
  return Status();
}

// Do two sorted int sets intersect?
bool IntersectsSorted(std::span<const int> a, const std::vector<int>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Weighted count of words of length <= max_width through `content`, where
// symbol a carries *weight[a] child subtrees (null: none). `paths` and
// `next` are the DP's two rows, reused across calls so their counts keep
// their limbs.
CountValue CountContentWeighted(const Dfa& content,
                                const std::vector<const CountValue*>& weight,
                                int max_width, std::vector<CountValue>* paths,
                                std::vector<CountValue>* next) {
  const int num_states = content.num_states();
  if (num_states == 0) return CountValue::Zero();
  paths->resize(num_states);
  next->resize(num_states);
  for (CountValue& value : *paths) value.SetZero();
  (*paths)[content.initial()] = CountValue::One();
  CountValue total = content.IsFinal(content.initial()) ? CountValue::One()
                                                        : CountValue::Zero();
  for (int length = 1; length <= max_width; ++length) {
    for (CountValue& value : *next) value.SetZero();
    bool alive = false;
    for (int s = 0; s < num_states; ++s) {
      const CountValue& from = (*paths)[s];
      if (from.IsZero()) continue;
      for (int a = 0; a < content.num_symbols(); ++a) {
        const int r = content.Next(s, a);
        if (r == kNoState || weight[a] == nullptr) continue;
        (*next)[r].AddProduct(from, *weight[a]);
        alive = true;
      }
    }
    if (!alive) break;
    paths->swap(*next);
    for (int s = 0; s < num_states; ++s) {
      if (content.IsFinal(s)) total.AddInPlace((*paths)[s]);
    }
  }
  return total;
}

// A state of the per-XSD-state sibling-word DP of the intersection
// counter: the XSD content state reached so far, plus one content-DFA
// state subset per EDTD type with the current label.
struct SiblingTuple {
  int prefix = 0;
  std::vector<StateSet> subsets;
  bool operator==(const SiblingTuple&) const = default;
};

struct SiblingTupleHash {
  uint64_t operator()(const SiblingTuple& tuple) const {
    uint64_t h = MixU64(static_cast<uint32_t>(tuple.prefix));
    for (const StateSet& subset : tuple.subsets) {
      h = MixU64(h ^ HashIntSpan(subset.data(), subset.size()));
    }
    return h;
  }
};

using SiblingTuples = Interner<SiblingTuple, SiblingTupleHash>;

// Interns `tuple` into `*tuples`, charging the set quota when it is new,
// and returns its dense id through `id`. On a hit `tuple` is untouched.
Status InternTuple(SiblingTuples* tuples, SiblingTuple&& tuple,
                   Budget* budget, int* id) {
  static Counter* const tuples_counter = GetCounter("count.sibling_tuples");
  const auto [tuple_id, inserted] = tuples->Intern(std::move(tuple));
  if (inserted) {
    STAP_RETURN_IF_ERROR(Budget::ChargeSets(budget));
    tuples_counter->Increment();
  }
  *id = tuple_id;
  return Status();
}

// Advances every per-type subset of `tuple` on the child profile
// `child_types` (a set of ∆ symbols). Returns false when every successor
// subset is empty — such a run can never produce a non-empty profile
// again, so the caller prunes it.
bool AdvanceTuple(const std::vector<const Dfa*>& contents,
                  const std::vector<StateSet>& tuple,
                  std::span<const int> child_types,
                  std::vector<StateSet>* successor) {
  const int k = static_cast<int>(contents.size());
  successor->assign(k, StateSet{});
  bool alive = false;
  for (int i = 0; i < k; ++i) {
    for (int s : tuple[i]) {
      for (int sigma : child_types) {
        const int r = contents[i]->Next(s, sigma);
        if (r != kNoState) StateSetInsert((*successor)[i], r);
      }
    }
    alive = alive || !(*successor)[i].empty();
  }
  return alive;
}

// The exact profile a tuple denotes: the types whose subset touches a
// final content state.
StateSet TupleProfile(const std::vector<int>& taus,
                      const std::vector<const Dfa*>& contents,
                      const std::vector<StateSet>& tuple) {
  StateSet profile;
  for (size_t i = 0; i < taus.size(); ++i) {
    for (int s : tuple[i]) {
      if (contents[i]->IsFinal(s)) {
        profile.push_back(taus[i]);
        break;
      }
    }
  }
  return profile;
}

// The XSD of all trees over `sigma`: one state per label, every label
// allowed everywhere, content Σ*. Intersecting with it leaves an EDTD's
// language unchanged, so CountEdtdByDepth is the intersection DP on it.
DfaXsd AllTreesXsd(const Alphabet& sigma) {
  const int k = sigma.size();
  Dfa any_word(1, k);
  any_word.SetFinal(0);
  for (int a = 0; a < k; ++a) any_word.SetTransition(0, a, 0);

  DfaXsd xsd;
  xsd.sigma = sigma;
  xsd.automaton = Dfa(k + 1, k);
  xsd.automaton.SetInitial(0);
  xsd.state_label.assign(k + 1, kNoSymbol);
  xsd.content.assign(k + 1, any_word);
  xsd.content[0] = Dfa::EmptyLanguage(k);  // unused for q_init
  for (int a = 0; a < k; ++a) {
    xsd.start_symbols.push_back(a);
    xsd.state_label[a + 1] = a;
    for (int q = 0; q <= k; ++q) xsd.automaton.SetTransition(q, a, a + 1);
  }
  return xsd;
}

SiblingTuple InitialTuple(int prefix,
                          const std::vector<const Dfa*>& contents) {
  SiblingTuple tuple{prefix, std::vector<StateSet>(contents.size())};
  for (size_t i = 0; i < contents.size(); ++i) {
    if (contents[i]->num_states() > 0) {
      tuple.subsets[i] = {contents[i]->initial()};
    }
  }
  return tuple;
}

}  // namespace

StatusOr<std::vector<CountValue>> CountXsdByDepth(const DfaXsd& xsd,
                                                  const CountBounds& bounds,
                                                  Budget* budget) {
  STAP_RETURN_IF_ERROR(CheckBounds(bounds));
  static Counter* const calls = GetCounter("count.xsd_calls");
  calls->Increment();
  ScopedSpan span("count.xsd");
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();

  std::vector<CountValue> count(n), next(n);
  std::vector<const CountValue*> weight(num_symbols);
  std::vector<CountValue> paths, path_scratch;
  std::vector<CountValue> totals;
  totals.reserve(bounds.max_depth);
  for (int d = 1; d <= bounds.max_depth; ++d) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    STAP_RETURN_IF_ERROR(Budget::ChargeSets(budget, n));
    for (int q = 1; q < n; ++q) {
      for (int a = 0; a < num_symbols; ++a) {
        const int child = xsd.automaton.Next(q, a);
        weight[a] = child == kNoState || count[child].IsZero()
                        ? nullptr
                        : &count[child];
      }
      next[q] = CountContentWeighted(xsd.content[q], weight, bounds.max_width,
                                     &paths, &path_scratch);
    }
    count.swap(next);
    CountValue total;
    for (int a : xsd.start_symbols) {
      const int q = xsd.automaton.Next(xsd.automaton.initial(), a);
      if (q != kNoState) total.AddInPlace(count[q]);
    }
    totals.push_back(std::move(total));
  }
  span.AddArg("depth", bounds.max_depth);
  return totals;
}

StatusOr<std::vector<CountValue>> CountEdtdByDepth(const Edtd& edtd,
                                                   const CountBounds& bounds,
                                                   Budget* budget) {
  return CountIntersectionByDepth(AllTreesXsd(edtd.sigma), edtd, bounds,
                                  budget);
}

StatusOr<std::vector<CountValue>> CountIntersectionByDepth(
    const DfaXsd& xsd, const Edtd& edtd, const CountBounds& bounds,
    Budget* budget) {
  STAP_RETURN_IF_ERROR(CheckBounds(bounds));
  if (!(xsd.sigma == edtd.sigma)) {
    return InvalidArgumentError(
        "CountIntersectionByDepth requires identical alphabets");
  }
  static Counter* const calls = GetCounter("count.intersection_calls");
  calls->Increment();
  ScopedSpan span("count.intersection");

  std::vector<std::vector<int>> types_of(edtd.num_symbols());
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    types_of[edtd.mu[tau]].push_back(tau);
  }
  const int n = xsd.automaton.num_states();

  // Joint keys [q, profile...] for trees valid at XSD state q whose exact
  // EDTD profile is the given type set.
  Interner<std::vector<int>, IntVectorHash> prev_pairs;
  std::vector<CountValue> prev_counts;
  auto profile_of = [](const std::vector<int>& pair) {
    return std::span<const int>(pair).subspan(1);
  };
  std::vector<CountValue> totals;
  totals.reserve(bounds.max_depth);

  for (int d = 1; d <= bounds.max_depth; ++d) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    Interner<std::vector<int>, IntVectorHash> next_pairs;
    std::vector<CountValue> next_counts;
    auto add_pair = [&](int q, const StateSet& profile,
                        const CountValue& cnt) -> Status {
      std::vector<int> key;
      key.reserve(profile.size() + 1);
      key.push_back(q);
      key.insert(key.end(), profile.begin(), profile.end());
      auto [id, inserted] = next_pairs.Intern(std::move(key));
      if (inserted) {
        STAP_RETURN_IF_ERROR(Budget::ChargeStates(budget));
        next_counts.push_back(cnt);
      } else {
        next_counts[id].AddInPlace(cnt);
      }
      return Status();
    };

    for (int q = 1; q < n; ++q) {
      const int a = xsd.state_label[q];
      const std::vector<int>& taus = types_of[a];
      if (taus.empty()) continue;
      const Dfa& content_q = xsd.content[q];
      if (content_q.num_states() == 0) continue;
      std::vector<const Dfa*> contents;
      contents.reserve(taus.size());
      for (int tau : taus) contents.push_back(&edtd.content[tau]);

      SiblingTuples tuples;
      int init_id = 0;
      STAP_RETURN_IF_ERROR(
          InternTuple(&tuples, InitialTuple(content_q.initial(), contents),
                      budget, &init_id));
      std::unordered_map<int, CountValue> frontier;
      frontier[init_id] = CountValue::One();

      for (int len = 0; len <= bounds.max_width; ++len) {
        for (const auto& [id, cnt] : frontier) {
          if (!content_q.IsFinal(tuples[id].prefix)) continue;
          StateSet profile = TupleProfile(taus, contents, tuples[id].subsets);
          if (!profile.empty()) STAP_RETURN_IF_ERROR(add_pair(q, profile, cnt));
        }
        if (len == bounds.max_width || prev_pairs.size() == 0) break;
        std::unordered_map<int, CountValue> next_frontier;
        SiblingTuple successor;
        for (const auto& [id, cnt] : frontier) {
          const std::vector<StateSet>& tuple = tuples[id].subsets;
          const int cs = tuples[id].prefix;
          for (int pi = 0; pi < prev_pairs.size(); ++pi) {
            const int child_q = prev_pairs[pi][0];
            const int b = xsd.state_label[child_q];
            if (xsd.automaton.Next(q, b) != child_q) continue;
            const int cs_next = content_q.Next(cs, b);
            if (cs_next == kNoState) continue;
            if (!AdvanceTuple(contents, tuple, profile_of(prev_pairs[pi]),
                              &successor.subsets)) {
              continue;
            }
            successor.prefix = cs_next;
            int sid = 0;
            STAP_RETURN_IF_ERROR(
                InternTuple(&tuples, std::move(successor), budget, &sid));
            next_frontier[sid].AddProduct(cnt, prev_counts[pi]);
          }
        }
        if (next_frontier.empty()) break;
        frontier = std::move(next_frontier);
      }
    }

    CountValue total;
    for (int a : xsd.start_symbols) {
      const int q = xsd.automaton.Next(xsd.automaton.initial(), a);
      if (q == kNoState) continue;
      for (int pi = 0; pi < next_pairs.size(); ++pi) {
        if (next_pairs[pi][0] == q &&
            IntersectsSorted(profile_of(next_pairs[pi]), edtd.start_types)) {
          total.AddInPlace(next_counts[pi]);
        }
      }
    }
    totals.push_back(total);
    prev_pairs = std::move(next_pairs);
    prev_counts = std::move(next_counts);
  }
  span.AddArg("pairs", prev_pairs.size());
  return totals;
}

StatusOr<XsdSizeTables> BuildXsdSizeTables(const DfaXsd& xsd, int max_size,
                                           Budget* budget) {
  if (max_size < 0) {
    return InvalidArgumentError("BuildXsdSizeTables requires max_size >= 0");
  }
  static Counter* const calls = GetCounter("count.size_table_calls");
  calls->Increment();
  ScopedSpan span("count.size_tables");
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();

  XsdSizeTables tables;
  tables.max_size = max_size;
  tables.trees.assign(n, std::vector<BigNat>(max_size + 1));
  tables.forests.resize(n);
  tables.totals.assign(max_size + 1, BigNat());
  int64_t cells_per_size = 0;
  for (int q = 1; q < n; ++q) {
    tables.forests[q].assign(xsd.content[q].num_states(),
                             std::vector<BigNat>(std::max(max_size, 1)));
    cells_per_size += xsd.content[q].num_states();
  }

  for (int s = 1; s <= max_size; ++s) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    STAP_RETURN_IF_ERROR(Budget::ChargeStates(budget, cells_per_size + n));
    const int r = s - 1;  // forest size feeding trees of size s
    for (int q = 1; q < n; ++q) {
      const Dfa& content_q = xsd.content[q];
      for (int cs = 0; cs < content_q.num_states(); ++cs) {
        BigNat total;
        if (r == 0) {
          if (content_q.IsFinal(cs)) total = BigNat(1);
        } else {
          for (int a = 0; a < num_symbols; ++a) {
            const int cs_next = content_q.Next(cs, a);
            const int child = xsd.automaton.Next(q, a);
            if (cs_next == kNoState || child == kNoState) continue;
            for (int k = 1; k <= r; ++k) {
              const BigNat& head = tables.trees[child][k];
              const BigNat& rest = tables.forests[q][cs_next][r - k];
              if (head.IsZero() || rest.IsZero()) continue;
              total = BigNat::Add(total, BigNat::Mul(head, rest));
            }
          }
        }
        tables.forests[q][cs][r] = std::move(total);
      }
      if (content_q.num_states() > 0) {
        tables.trees[q][s] = tables.forests[q][content_q.initial()][r];
      }
    }
    BigNat total;
    for (int a : xsd.start_symbols) {
      const int q = xsd.automaton.Next(xsd.automaton.initial(), a);
      if (q != kNoState) total = BigNat::Add(total, tables.trees[q][s]);
    }
    tables.totals[s] = std::move(total);
  }
  span.AddArg("max_size", max_size);
  return tables;
}

}  // namespace stap
