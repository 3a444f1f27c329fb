#include "stap/approx/upper_boolean.h"

#include <map>
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

// Re-interprets `dfa` over a larger alphabet; symbol ids keep their
// meaning, the new symbols simply never occur.
Dfa ExpandAlphabet(const Dfa& dfa, int new_num_symbols) {
  STAP_CHECK(new_num_symbols >= dfa.num_symbols());
  Dfa result(std::max(dfa.num_states(), 1), new_num_symbols);
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState) result.SetTransition(q, a, r);
    }
  }
  return result;
}

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
  std::vector<int> shift(nb);
  for (int tau = 0; tau < nb; ++tau) shift[tau] = na + tau;
  for (int tau = 0; tau < na; ++tau) {
    result.content.push_back(ExpandAlphabet(a.content[tau], n));
  }
  for (int tau = 0; tau < nb; ++tau) {
    const Dfa& dfa = b.content[tau];
    Dfa expanded(std::max(dfa.num_states(), 1), n);
    if (dfa.num_states() > 0) {
      expanded.SetInitial(dfa.initial());
      for (int q = 0; q < dfa.num_states(); ++q) {
        if (dfa.IsFinal(q)) expanded.SetFinal(q);
        for (int t = 0; t < nb; ++t) {
          int r = dfa.Next(q, t);
          if (r != kNoState) expanded.SetTransition(q, shift[t], r);
        }
      }
    }
    result.content.push_back(std::move(expanded));
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
  xsd.CheckWellFormed();
  const int num_symbols = xsd.sigma.size();
  const int num_states = xsd.automaton.num_states();
  const int num_path = num_states - 1;          // path type of state q: q-1
  const int n = num_path + num_symbols;         // any-type of symbol a:
  span.AddArg("path_types", num_path);
  span.AddArg("types", n);
  auto any_type = [&](int a) { return num_path + a; };

  Edtd result;
  result.sigma = xsd.sigma;
  for (int q = 1; q < num_states; ++q) {
    result.types.Intern("p" + std::to_string(q) + "." +
                        xsd.sigma.Name(xsd.state_label[q]));
    result.mu.push_back(xsd.state_label[q]);
  }
  for (int a = 0; a < num_symbols; ++a) {
    result.types.Intern("any." + xsd.sigma.Name(a));
    result.mu.push_back(a);
  }
  STAP_CHECK(result.types.size() == n);

  // Start types: guess an error below a valid root, or reject the root
  // label outright.
  for (int a = 0; a < num_symbols; ++a) {
    int q = xsd.automaton.Next(xsd.automaton.initial(), a);
    if (StateSetContains(xsd.start_symbols, a) && q != kNoState) {
      StateSetInsert(result.start_types, q - 1);
    } else {
      StateSetInsert(result.start_types, any_type(a));
    }
  }

  // Map Δc -> Σ that forbids path types (used to build rule L1 below).
  std::vector<int> any_only(n, kNoSymbol);
  for (int a = 0; a < num_symbols; ++a) any_only[any_type(a)] = a;

  result.content.resize(n, Dfa());
  // One independent content build per path type (disjoint slots), swept in
  // parallel when a pool is supplied.
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, num_path, [&](int i) {
    if (!shared.ok()) return;
    const int q = i + 1;
    // L1: child strings whose Σ-projection violates f(q); all children get
    // "anything" types.
    Dfa l1 = InverseHomomorphism(DfaComplement(xsd.content[q]), any_only, n);
    // L2: any-typed siblings around exactly one path-typed child that
    // continues the guessed route.
    Nfa l2(2, n);
    l2.AddInitial(0);
    l2.SetFinal(1);
    for (int a = 0; a < num_symbols; ++a) {
      l2.AddTransition(0, any_type(a), 0);
      l2.AddTransition(1, any_type(a), 1);
      int next = xsd.automaton.Next(q, a);
      if (next != kNoState) l2.AddTransition(0, next - 1, 1);
    }
    StatusOr<Dfa> content = MinimizeNfa(NfaUnion(l1.ToNfa(), l2), budget);
    if (!content.ok()) {
      shared.Update(content.status());
      return;
    }
    result.content[q - 1] = *std::move(content);
  });
  STAP_RETURN_IF_ERROR(shared.ToStatus());
  // Any-types accept any child string of any-types.
  Dfa all_any(1, n);
  all_any.SetFinal(0);
  for (int a = 0; a < num_symbols; ++a) {
    all_any.SetTransition(0, any_type(a), 0);
  }
  for (int a = 0; a < num_symbols; ++a) result.content[any_type(a)] = all_any;

  result.CheckWellFormed();
  return result;
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
  for (int tau = 0; tau < n1; ++tau) {
    result.content[tau] = ExpandAlphabet(d1.content[tau], n);
  }

  // Rule (4): pair types either find the violation in this child string or
  // hand the guess to exactly one child. Each pair writes its own content
  // slot; the builds run as one parallel sweep.
  SharedStatus shared;
  ThreadPool::ParallelFor(pool, static_cast<int>(pairs.size()), [&](int p) {
    if (!shared.ok()) return;
    auto [tau, q] = pairs[p];
    const Dfa& c1 = d1.content[tau];
    const Dfa f2 = xsd2.content[q].Completed();

    // L1 = { w ∈ d1(τ) : μ1(w) ∉ f2(q) }, all children typed by D1 only.
    StatusOr<Dfa> violating = DfaProduct(
        c1, InverseHomomorphism(DfaComplement(xsd2.content[q]), d1.mu, n1),
        BoolOp::kAnd, budget);
    if (!violating.ok()) {
      shared.Update(violating.status());
      return;
    }
    Dfa l1 = ExpandAlphabet(*violating, n);

    // L2: product of c1 and f2 with a one-shot switch onto a pair type.
    // States (s1, s2, mode) flattened.
    if (c1.num_states() > 0) {
      const int s1n = c1.num_states();
      const int s2n = f2.num_states();
      auto state_id = [&](int s1, int s2, int mode) {
        return (mode * s2n + s2) * s1n + s1;
      };
      Nfa l2(s1n * s2n * 2, n);
      l2.AddInitial(state_id(c1.initial(), f2.initial(), 0));
      for (int s1 = 0; s1 < s1n; ++s1) {
        for (int s2 = 0; s2 < s2n; ++s2) {
          if (c1.IsFinal(s1) && f2.IsFinal(s2)) {
            l2.SetFinal(state_id(s1, s2, 1));
          }
          for (int t = 0; t < n1; ++t) {
            int r1 = c1.Next(s1, t);
            if (r1 == kNoState) continue;
            int r2 = f2.Next(s2, d1.mu[t]);
            // Keep D1 typing on both modes.
            l2.AddTransition(state_id(s1, s2, 0), t, state_id(r1, r2, 0));
            l2.AddTransition(state_id(s1, s2, 1), t, state_id(r1, r2, 1));
            // Or switch: child continues the guessed route in D2.
            int q2_next = xsd2.automaton.Next(q, d1.mu[t]);
            if (q2_next != kNoState) {
              auto it = pair_id.find(PackPair(t, q2_next));
              if (it != pair_id.end()) {
                l2.AddTransition(state_id(s1, s2, 0), it->second,
                                 state_id(r1, r2, 1));
              }
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

StatusOr<DfaXsd> UpperUnion(const Edtd& d1, const Edtd& d2, Budget* budget,
                            const UpperOptions& options) {
  ScopedSpan span("approx.upper_union");
  STAP_CHECK(IsSingleType(d1));
  STAP_CHECK(IsSingleType(d2));
  return MinimalUpperApproximation(EdtdUnion(d1, d2), budget, options);
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
  // Prune unproductive states through the EDTD reduction round trip.
  return MinimizeXsd(product, budget);
}

StatusOr<DfaXsd> UpperComplement(const Edtd& d, ThreadPool* pool,
                                 Budget* budget, const UpperOptions& options) {
  ScopedSpan span("approx.upper_complement");
  Edtd reduced = ReduceEdtd(d);
  STAP_CHECK(IsSingleType(reduced));
  StatusOr<Edtd> complement =
      ComplementEdtd(DfaXsdFromStEdtd(reduced), pool, budget);
  if (!complement.ok()) return complement.status();
  return MinimalUpperApproximation(*complement, budget, options);
}

StatusOr<DfaXsd> UpperDifference(const Edtd& d1_in, const Edtd& d2_in,
                                 ThreadPool* pool, Budget* budget,
                                 const UpperOptions& options) {
  ScopedSpan span("approx.upper_difference");
  auto [d1, d2] = AlignAlphabets(d1_in, d2_in);
  Edtd r1 = ReduceEdtd(d1);
  Edtd r2 = ReduceEdtd(d2);
  STAP_CHECK(IsSingleType(r1));
  STAP_CHECK(IsSingleType(r2));
  StatusOr<Edtd> difference =
      DifferenceEdtd(r1, DfaXsdFromStEdtd(r2), pool, budget);
  if (!difference.ok()) return difference.status();
  return MinimalUpperApproximation(*difference, budget, options);
}

}  // namespace stap
