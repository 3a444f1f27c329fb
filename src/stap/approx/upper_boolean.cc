#include "stap/approx/upper_boolean.h"

#include <map>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "stap/approx/upper.h"
#include "stap/automata/determinize.h"
#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

// Remaps symbol ids of an Edtd's μ according to `sigma_map` into the
// merged alphabet.
Edtd RelabelSigma(const Edtd& edtd, const Alphabet& merged,
                  const std::vector<int>& sigma_map) {
  Edtd result = edtd;
  result.sigma = merged;
  for (int tau = 0; tau < result.num_types(); ++tau) {
    result.mu[tau] = sigma_map[edtd.mu[tau]];
  }
  return result;
}

}  // namespace

std::pair<Edtd, Edtd> AlignAlphabets(const Edtd& a, const Edtd& b) {
  Alphabet merged = a.sigma;
  std::vector<int> map_a(a.sigma.size());
  for (int i = 0; i < a.sigma.size(); ++i) map_a[i] = i;
  std::vector<int> map_b(b.sigma.size());
  for (int i = 0; i < b.sigma.size(); ++i) {
    map_b[i] = merged.Intern(b.sigma.Name(i));
  }
  return {RelabelSigma(a, merged, map_a), RelabelSigma(b, merged, map_b)};
}

Edtd EdtdUnion(const Edtd& a_in, const Edtd& b_in) {
  ScopedSpan span("boolean.edtd_union");
  auto [a, b] = AlignAlphabets(a_in, b_in);
  const int na = a.num_types();
  const int nb = b.num_types();
  const int n = na + nb;
  span.AddArg("types", n);

  Edtd result;
  result.sigma = a.sigma;
  for (int tau = 0; tau < na; ++tau) {
    result.types.Intern("u1." + a.types.Name(tau));
    result.mu.push_back(a.mu[tau]);
  }
  for (int tau = 0; tau < nb; ++tau) {
    result.types.Intern("u2." + b.types.Name(tau));
    result.mu.push_back(b.mu[tau]);
  }
  STAP_CHECK(result.types.size() == n);

  // Content models keep their transitions; a's type ids are unchanged,
  // b's are shifted by na.
  std::vector<int> keep(na);
  std::iota(keep.begin(), keep.end(), 0);
  std::vector<int> shift(nb);
  std::iota(shift.begin(), shift.end(), na);
  for (int tau = 0; tau < na; ++tau) {
    result.content.push_back(RemapSymbols(a.content[tau], keep, n));
  }
  for (int tau = 0; tau < nb; ++tau) {
    result.content.push_back(RemapSymbols(b.content[tau], shift, n));
  }

  for (int tau : a.start_types) StateSetInsert(result.start_types, tau);
  for (int tau : b.start_types) StateSetInsert(result.start_types, na + tau);
  result.CheckWellFormed();
  return result;
}

StatusOr<Edtd> EdtdIntersection(const Edtd& a_in, const Edtd& b_in,
                                ThreadPool* pool, Budget* budget) {
  ScopedSpan span("boolean.intersection");
  auto [a, b] = AlignAlphabets(a_in, b_in);
  const int na = a.num_types();
  const int nb = b.num_types();

  // Pair types (τa, τb) with matching labels.
  std::vector<int> pair_id(static_cast<size_t>(na) * nb, -1);
  std::vector<std::pair<int, int>> live_pairs;  // pair of type id k
  Edtd result;
  result.sigma = a.sigma;
  for (int ta = 0; ta < na; ++ta) {
    for (int tb = 0; tb < nb; ++tb) {
      if (a.mu[ta] != b.mu[tb]) continue;
      pair_id[ta * nb + tb] = result.types.Intern(
          a.types.Name(ta) + "&" + b.types.Name(tb));
      result.mu.push_back(a.mu[ta]);
      live_pairs.emplace_back(ta, tb);
    }
  }
  const int n = static_cast<int>(result.mu.size());
  span.AddArg("pairs", n);

  // Content of (τa, τb): words over the pair alphabet whose projections
  // satisfy both sides — the product of the lifted content DFAs. Each pair
  // writes its own slot, so the products run as one parallel sweep.
  std::vector<int> project_a(n), project_b(n);
  for (int id = 0; id < n; ++id) {
    project_a[id] = live_pairs[id].first;
    project_b[id] = live_pairs[id].second;
  }
  result.content.resize(n, Dfa());
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, n, [&](int id) {
    if (!shared.ok()) return;  // another worker already exhausted
    auto [ta, tb] = live_pairs[id];
    Dfa lifted_a = InverseHomomorphism(a.content[ta], project_a, n);
    Dfa lifted_b = InverseHomomorphism(b.content[tb], project_b, n);
    StatusOr<Dfa> product =
        DfaProduct(lifted_a, lifted_b, BoolOp::kAnd, budget);
    if (!product.ok()) {
      shared.Update(product.status());
      return;
    }
    StatusOr<Dfa> minimized = Minimize(*product, budget);
    if (!minimized.ok()) {
      shared.Update(minimized.status());
      return;
    }
    result.content[id] = *std::move(minimized);
  });
  STAP_RETURN_IF_ERROR(shared.ToStatus());
  for (int ta : a.start_types) {
    for (int tb : b.start_types) {
      int id = pair_id[ta * nb + tb];
      if (id >= 0) StateSetInsert(result.start_types, id);
    }
  }
  result.CheckWellFormed();
  return ReduceEdtd(result);
}

StatusOr<Edtd> ComplementEdtd(const DfaXsd& xsd, ThreadPool* pool,
                              Budget* budget) {
  ScopedSpan span("boolean.complement");
  // The schema of all trees over Σ: one type per symbol, content Σ*,
  // every type a start type.
  const int num_symbols = xsd.sigma.size();
  Dfa anything(1, num_symbols);
  anything.SetFinal(0);
  Edtd all;
  all.sigma = xsd.sigma;
  all.types = xsd.sigma;
  for (int a = 0; a < num_symbols; ++a) {
    anything.SetTransition(0, a, 0);
    all.mu.push_back(a);
    all.start_types.push_back(a);
  }
  all.content.assign(num_symbols, anything);
  return DifferenceEdtd(all, xsd, pool, budget);
}

StatusOr<Edtd> DifferenceEdtd(const Edtd& d1, const DfaXsd& xsd2,
                              ThreadPool* pool, Budget* budget) {
  ScopedSpan span("boolean.difference");
  STAP_CHECK(d1.sigma == xsd2.sigma);
  d1.CheckWellFormed();
  xsd2.CheckWellFormed();
  const int n1 = d1.num_types();
  const int m2 = xsd2.automaton.num_states();

  // Pair types (τ1, q2) for label-compatible combinations.
  std::unordered_map<uint64_t, int, U64Hash> pair_id;
  std::vector<std::pair<int, int>> pairs;
  for (int tau = 0; tau < n1; ++tau) {
    for (int q = 1; q < m2; ++q) {
      if (d1.mu[tau] == xsd2.state_label[q]) {
        pair_id[PackPair(tau, q)] = n1 + static_cast<int>(pairs.size());
        pairs.emplace_back(tau, q);
      }
    }
  }
  const int n = n1 + static_cast<int>(pairs.size());
  span.AddArg("pairs", pairs.size());
  span.AddArg("types", n);

  Edtd result;
  result.sigma = d1.sigma;
  for (int tau = 0; tau < n1; ++tau) {
    result.types.Intern("d1." + d1.types.Name(tau));
    result.mu.push_back(d1.mu[tau]);
  }
  for (const auto& [tau, q] : pairs) {
    result.types.Intern("pair." + d1.types.Name(tau) + "@" +
                        std::to_string(q));
    result.mu.push_back(d1.mu[tau]);
  }
  STAP_CHECK(result.types.size() == n);

  // Start types (paper rule (3)): pairs for roots D2 might accept, plain
  // D1 types for roots D2 rejects outright.
  for (int tau : d1.start_types) {
    int a = d1.mu[tau];
    int q = xsd2.automaton.Next(xsd2.automaton.initial(), a);
    if (StateSetContains(xsd2.start_symbols, a) && q != kNoState) {
      StateSetInsert(result.start_types, pair_id.at(PackPair(tau, q)));
    } else {
      StateSetInsert(result.start_types, tau);
    }
  }

  result.content.resize(n, Dfa());
  // Rule (5): plain types validate against D1 only.
  std::vector<int> keep(n1);
  std::iota(keep.begin(), keep.end(), 0);
  for (int tau = 0; tau < n1; ++tau) {
    result.content[tau] = RemapSymbols(d1.content[tau], keep, n);
  }

  // Rule (4): pair types either find the violation in this child string or
  // hand the guess to exactly one child. Each pair writes its own content
  // slot; the builds run as one parallel sweep.
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, static_cast<int>(pairs.size()), [&](int p) {
    if (!shared.ok()) return;
    auto [tau, q] = pairs[p];
    const Dfa& c1 = d1.content[tau];

    // L1 = { w ∈ d1(τ) : μ1(w) ∉ f2(q) }, all children typed by D1 only.
    StatusOr<Dfa> violating = DfaProduct(
        c1, InverseHomomorphism(DfaComplement(xsd2.content[q]), d1.mu, n1),
        BoolOp::kAnd, budget);
    if (!violating.ok()) {
      shared.Update(violating.status());
      return;
    }
    Dfa l1 = RemapSymbols(*violating, keep, n);

    // L2: c1 with a one-shot switch of one child onto a pair type. States
    // (s1, mode) flattened. L2 does not track f2(q): a string that
    // violates it puts the tree in the difference already, through L1
    // with every child typed by D1 (a pair type only ever accepts trees
    // its D1 type accepts), so the language is the same without the
    // product.
    if (c1.num_states() > 0) {
      const int s1n = c1.num_states();
      // Charged up front: the NFA is allocated and determinized before
      // any kernel would charge it.
      Status charged = Budget::ChargeStates(budget, int64_t{2} * s1n);
      if (!charged.ok()) {
        shared.Update(charged);
        return;
      }
      Nfa l2(2 * s1n, n);
      l2.AddInitial(c1.initial());
      for (int s1 = 0; s1 < s1n; ++s1) {
        if (c1.IsFinal(s1)) l2.SetFinal(s1n + s1);
        for (int t = 0; t < n1; ++t) {
          int r1 = c1.Next(s1, t);
          if (r1 == kNoState) continue;
          // Keep D1 typing on both modes.
          l2.AddTransition(s1, t, r1);
          l2.AddTransition(s1n + s1, t, s1n + r1);
          // Or switch: child continues the guessed route in D2.
          int q2_next = xsd2.automaton.Next(q, d1.mu[t]);
          if (q2_next != kNoState) {
            auto it = pair_id.find(PackPair(t, q2_next));
            if (it != pair_id.end()) {
              l2.AddTransition(s1, it->second, s1n + r1);
            }
          }
        }
      }
      StatusOr<Dfa> content = MinimizeNfa(NfaUnion(l1.ToNfa(), l2), budget);
      if (!content.ok()) {
        shared.Update(content.status());
        return;
      }
      result.content[n1 + p] = *std::move(content);
    } else {
      StatusOr<Dfa> content = Minimize(l1, budget);
      if (!content.ok()) {
        shared.Update(content.status());
        return;
      }
      result.content[n1 + p] = *std::move(content);
    }
  });
  STAP_RETURN_IF_ERROR(shared.ToStatus());

  result.CheckWellFormed();
  return result;
}

StatusOr<DfaXsd> UpperUnion(const Edtd& d1, const Edtd& d2, Budget* budget) {
  ScopedSpan span("approx.upper_union");
  STAP_CHECK(IsSingleType(d1));
  STAP_CHECK(IsSingleType(d2));
  return MinimalUpperApproximation(EdtdUnion(d1, d2), budget);
}

StatusOr<DfaXsd> UpperIntersection(const Edtd& d1_in, const Edtd& d2_in,
                                   ThreadPool* pool, Budget* budget) {
  ScopedSpan span("approx.upper_intersection");
  auto [d1, d2] = AlignAlphabets(d1_in, d2_in);
  STAP_CHECK(IsSingleType(d1));
  STAP_CHECK(IsSingleType(d2));
  DfaXsd x1 = DfaXsdFromStEdtd(ReduceEdtd(d1));
  DfaXsd x2 = DfaXsdFromStEdtd(ReduceEdtd(d2));
  const int num_symbols = x1.sigma.size();

  // Product of the two XSD automata over reachable pairs; content models
  // are intersected.
  ScopedSpan walk_span("intersection.product_walk");
  std::unordered_map<uint64_t, int, U64Hash> ids;
  std::vector<std::pair<int, int>> worklist;
  DfaXsd product;
  product.sigma = x1.sigma;
  product.automaton = Dfa(0, num_symbols);
  Status charge_status;
  auto intern = [&](int q1, int q2) -> int {
    auto [it, inserted] =
        ids.emplace(PackPair(q1, q2), product.automaton.num_states());
    if (inserted) {
      product.automaton.AddState();
      worklist.emplace_back(q1, q2);
      if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
    }
    return it->second;
  };
  intern(0, 0);
  product.automaton.SetInitial(0);
  size_t processed = 0;
  while (processed < worklist.size() && charge_status.ok()) {
    auto [q1, q2] = worklist[processed];
    int id = ids.at(PackPair(q1, q2));
    ++processed;
    for (int a = 0; a < num_symbols; ++a) {
      int r1 = x1.automaton.Next(q1, a);
      int r2 = x2.automaton.Next(q2, a);
      if (r1 == kNoState || r2 == kNoState) continue;
      product.automaton.SetTransition(id, a, intern(r1, r2));
    }
  }
  walk_span.AddArg("pairs", worklist.size());
  walk_span.End();
  STAP_RETURN_IF_ERROR(charge_status);
  const int total = product.automaton.num_states();
  product.state_label.assign(total, kNoSymbol);
  product.content.assign(total, Dfa::EmptyLanguage(num_symbols));
  // worklist[id] is the pair interned as state id, so the per-state content
  // intersections index it directly and run as one parallel sweep.
  ScopedSpan sweep_span("intersection.content_sweep");
  sweep_span.AddArg("states", total);
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, total, [&](int id) {
    if (id == 0 || !shared.ok()) return;
    auto [q1, q2] = worklist[id];
    product.state_label[id] = x1.state_label[q1];
    StatusOr<Dfa> content =
        DfaProduct(x1.content[q1], x2.content[q2], BoolOp::kAnd, budget);
    if (content.ok()) content = Minimize(*content, budget);
    if (!content.ok()) {
      shared.Update(content.status());
      return;
    }
    product.content[id] = *std::move(content);
  });
  sweep_span.End();
  STAP_RETURN_IF_ERROR(shared.ToStatus());
  for (int a : x1.start_symbols) {
    if (StateSetContains(x2.start_symbols, a)) {
      StateSetInsert(product.start_symbols, a);
    }
  }
  // MinimizeXsd reduces the product on the DfaXsd itself, pruning the
  // unproductive pairs, then merges equivalent states.
  return MinimizeXsd(product, budget);
}

StatusOr<DfaXsd> UpperComplement(const Edtd& d, ThreadPool* pool,
                                 Budget* budget) {
  ScopedSpan span("approx.upper_complement");
  Edtd reduced = ReduceEdtd(d);
  STAP_CHECK(IsSingleType(reduced));
  StatusOr<Edtd> complement =
      ComplementEdtd(DfaXsdFromStEdtd(reduced), pool, budget);
  if (!complement.ok()) return complement.status();
  return MinimalUpperApproximation(*complement, budget);
}

StatusOr<DfaXsd> UpperDifference(const Edtd& d1_in, const Edtd& d2_in,
                                 ThreadPool* pool, Budget* budget) {
  ScopedSpan span("approx.upper_difference");
  auto [d1, d2] = AlignAlphabets(d1_in, d2_in);
  Edtd r1 = ReduceEdtd(d1);
  Edtd r2 = ReduceEdtd(d2);
  STAP_CHECK(IsSingleType(r1));
  STAP_CHECK(IsSingleType(r2));
  StatusOr<Edtd> difference =
      DifferenceEdtd(r1, DfaXsdFromStEdtd(r2), pool, budget);
  if (!difference.ok()) return difference.status();
  return MinimalUpperApproximation(*difference, budget);
}

}  // namespace stap
