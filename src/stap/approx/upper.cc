#include "stap/approx/upper.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

// The content model over Σ of a merged state, from the sorted, non-empty,
// same-labeled `types` it merges.
using ContentRule = StatusOr<Dfa> (*)(const Edtd& edtd,
                                      const std::vector<int>& types,
                                      Budget* budget);

StatusOr<Dfa> UnionRule(const Edtd& edtd, const std::vector<int>& types,
                        Budget* budget) {
  return MinimizeNfa(ContentImageUnion(edtd, types), budget);
}

// Every word the intersection admits is admitted by every member's
// content model, which is what the soundness induction needs.
StatusOr<Dfa> IntersectionRule(const Edtd& edtd, const std::vector<int>& types,
                               Budget* budget) {
  Dfa meet;
  for (size_t i = 0; i < types.size(); ++i) {
    StatusOr<Dfa> image = Determinize(
        HomomorphicImage(edtd.content[types[i]], edtd.mu, edtd.num_symbols()),
        budget);
    if (!image.ok()) return image.status();
    if (i == 0) {
      meet = *std::move(image);
      continue;
    }
    StatusOr<Dfa> product = DfaProduct(meet, *image, BoolOp::kAnd, budget);
    if (!product.ok()) return product.status();
    meet = *std::move(product);
  }
  return Minimize(meet.Trimmed(), budget);
}

// A structural key of an image NFA: its state count, initial states,
// final states, and every transition row in (state, symbol) order. Equal
// keys mean equal automata, hence equal languages.
std::vector<int> ImageKey(const Nfa& image) {
  std::vector<int> key = {image.num_states(),
                          static_cast<int>(image.initial().size())};
  key.insert(key.end(), image.initial().begin(), image.initial().end());
  for (int s = 0; s < image.num_states(); ++s) key.push_back(image.IsFinal(s));
  for (int s = 0; s < image.num_states(); ++s) {
    for (int a = 0; a < image.num_symbols(); ++a) {
      const StateSet& row = image.Next(s, a);
      key.push_back(static_cast<int>(row.size()));
      key.insert(key.end(), row.begin(), row.end());
    }
  }
  return key;
}

// Construction 3.1 with the content rule as its parameter: reduce the
// input, determinize its type automaton by the subset construction, and
// give each reachable non-empty subset the content `rule` computes from
// the types it merges. Each phase is its own span so `stap explain` and
// the trace timeline show where an adversarial schema spends its states;
// the spans keep their upper.* names under either content rule.
StatusOr<DfaXsd> SubsetConstruction(const Edtd& input, ContentRule rule,
                                    Budget* budget) {
  ScopedSpan reduce_span("upper.reduce");
  Edtd edtd = ReduceEdtd(input);
  reduce_span.AddArg("types_in", input.num_types());
  reduce_span.AddArg("types_out", edtd.num_types());
  reduce_span.End();

  ScopedSpan ta_span("upper.type_automaton");
  TypeAutomaton type_automaton = BuildTypeAutomaton(edtd);
  ta_span.AddArg("nfa_states", type_automaton.nfa.num_states());
  ta_span.End();

  // Each materialized subset is either {q_init}, empty (the dead sink), or
  // a set of type states that all carry the same Σ-label.
  ScopedSpan subset_span("upper.subset_construction");
  std::vector<StateSet> subsets;
  StatusOr<Dfa> determinized_or =
      Determinize(type_automaton.nfa, budget, &subsets);
  if (!determinized_or.ok()) return determinized_or.status();
  Dfa determinized = *std::move(determinized_or);
  subset_span.AddArg("subset_states", determinized.num_states());
  subset_span.End();

  ScopedSpan merge_span("upper.merge_contents");
  // Renumber: {q_init} becomes state 0; non-empty subsets get 1..; the
  // empty sink is dropped.
  const int n = determinized.num_states();
  std::vector<int> remap(n, kNoState);
  STAP_CHECK(subsets[determinized.initial()] ==
             StateSet{TypeAutomaton::kInit});
  remap[determinized.initial()] = 0;
  int next_id = 1;
  for (int s = 0; s < n; ++s) {
    if (s == determinized.initial() || subsets[s].empty()) continue;
    remap[s] = next_id++;
  }

  DfaXsd xsd;
  xsd.sigma = edtd.sigma;
  for (int tau : edtd.start_types) {
    StateSetInsert(xsd.start_symbols, edtd.mu[tau]);
  }
  xsd.automaton = Dfa(next_id, edtd.num_symbols());
  xsd.automaton.SetInitial(0);
  xsd.state_label.assign(next_id, kNoSymbol);
  xsd.content.assign(next_id, Dfa::EmptyLanguage(edtd.num_symbols()));

  // merged_types[q]: the types state q merges, all labeled state_label[q].
  std::vector<std::vector<int>> merged_types(next_id);
  for (int s = 0; s < n; ++s) {
    const int q = remap[s];
    if (q == kNoState) continue;
    for (int a = 0; a < edtd.num_symbols(); ++a) {
      int t = determinized.Next(s, a);
      if (t != kNoState && remap[t] != kNoState) {
        xsd.automaton.SetTransition(q, a, remap[t]);
      }
    }
    if (q == 0) continue;
    for (int state : subsets[s]) {
      STAP_CHECK(state != TypeAutomaton::kInit);
      merged_types[q].push_back(TypeAutomaton::TypeOfState(state));
    }
    xsd.state_label[q] = edtd.mu[merged_types[q][0]];
    for (int tau : merged_types[q]) {
      STAP_CHECK(edtd.mu[tau] == xsd.state_label[q]);
    }
  }

  // A merged state's content depends only on the set of its members'
  // distinct content images: a union or intersection is unchanged by
  // duplicate operands, and both rules end in Minimize, whose output is
  // canonical. So the rule runs once per distinct set, on the least type
  // of each image (image ids are handed out in type order, so sorted ids
  // give sorted representatives), and states with the same set share its
  // content byte for byte.
  Interner<std::vector<int>, IntVectorHash> image_ids(edtd.num_types());
  std::vector<int> image_of(edtd.num_types());
  std::vector<int> representative;
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    auto [id, inserted] = image_ids.Intern(ImageKey(
        HomomorphicImage(edtd.content[tau], edtd.mu, edtd.num_symbols())));
    image_of[tau] = id;
    if (inserted) representative.push_back(tau);
  }
  static Counter* const rule_calls = GetCounter("approx.content_rules");
  Interner<std::vector<int>, IntVectorHash> content_ids;
  std::vector<Dfa> contents;
  std::vector<int> images, operands;
  Status status;
  for (int q = 1; q < next_id; ++q) {
    images.clear();
    for (int tau : merged_types[q]) images.push_back(image_of[tau]);
    std::sort(images.begin(), images.end());
    images.erase(std::unique(images.begin(), images.end()), images.end());
    auto [id, inserted] = content_ids.Intern(images);
    if (inserted) {
      operands.clear();
      for (int image : images) operands.push_back(representative[image]);
      StatusOr<Dfa> content = rule(edtd, operands, budget);
      if (!content.ok()) {
        status = content.status();
        break;
      }
      contents.push_back(*std::move(content));
    }
    xsd.content[q] = contents[id];
  }
  rule_calls->Increment(content_ids.size());
  merge_span.AddArg("distinct_contents", content_ids.size());
  if (!status.ok()) return status;
  merge_span.AddArg("merged_states", next_id);
  merge_span.End();
  xsd.CheckWellFormed();
  return xsd;
}

}  // namespace

Nfa ContentImageUnion(const Edtd& edtd, const std::vector<int>& types) {
  const int num_symbols = edtd.num_symbols();
  if (types.empty()) return Nfa(0, num_symbols);
  Nfa content_union =
      HomomorphicImage(edtd.content[types[0]], edtd.mu, num_symbols);
  for (size_t i = 1; i < types.size(); ++i) {
    content_union = NfaUnion(
        content_union,
        HomomorphicImage(edtd.content[types[i]], edtd.mu, num_symbols));
  }
  return content_union;
}

StatusOr<DfaXsd> MinimalUpperApproximation(const Edtd& input, Budget* budget) {
  static Counter* const calls = GetCounter("approx.upper_calls");
  static Counter* const merged_states =
      GetCounter("approx.upper_merged_states");
  static Histogram* const latency = GetHistogram("approx.upper_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("approx.upper");
  const int64_t budget_states_before =
      budget != nullptr ? budget->states_charged() : 0;

  StatusOr<DfaXsd> xsd = SubsetConstruction(input, UnionRule, budget);
  if (!xsd.ok()) return xsd.status();
  merged_states->Increment(xsd->automaton.num_states());
  span.AddArg("xsd_states", xsd->automaton.num_states());
  if (budget != nullptr) {
    span.AddArg("budget_states",
                budget->states_charged() - budget_states_before);
  }
  return xsd;
}

DfaXsd MinimalUpperApproximation(const Edtd& input) {
  StatusOr<DfaXsd> result = MinimalUpperApproximation(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<DfaXsd> SubsetIntersectionLower(const Edtd& input, Budget* budget) {
  static Counter* const calls = GetCounter("approx.lower_calls");
  static Counter* const merged_states =
      GetCounter("approx.lower_merged_states");
  static Histogram* const latency = GetHistogram("approx.lower_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("approx.lower");

  StatusOr<DfaXsd> xsd = SubsetConstruction(input, IntersectionRule, budget);
  if (!xsd.ok()) return xsd.status();
  merged_states->Increment(xsd->automaton.num_states());
  span.AddArg("xsd_states", xsd->automaton.num_states());
  return xsd;
}

}  // namespace stap
