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

// The content rules: the content model over Σ of a merged state, from the
// sorted, non-empty, same-labeled `types` it merges.
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

// The union rule's counted provenance: the union of the μ-images of the
// content sources of `types`, whose language is exactly the rule's
// content. It is built only when some source carries counted repetition,
// since the printers and the exporter prefer a source only then, and it
// is null when some member has no source.
RegexPtr CountedUnionSource(const Edtd& edtd, const std::vector<int>& types) {
  if (edtd.content_source.empty()) return nullptr;
  bool counted = false;
  for (int tau : types) {
    const RegexPtr& source = edtd.content_source[tau];
    if (source == nullptr) return nullptr;
    counted = counted || source->ContainsRepeat();
  }
  if (!counted) return nullptr;
  std::vector<RegexPtr> images;
  for (int tau : types) {
    images.push_back(Regex::Substitute(edtd.content_source[tau], edtd.mu));
  }
  return Regex::Union(std::move(images));
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

// What both public forms run: reduce the input, then the one construction
// with the union rule (`upper`) or the intersection rule alone.
StatusOr<DfaXsd> ReduceAndApproximate(const Edtd& input, bool upper,
                                      Budget* budget) {
  ScopedSpan reduce_span("upper.reduce");
  const Edtd edtd = ReduceEdtd(input);
  reduce_span.AddArg("types_in", input.num_types());
  reduce_span.AddArg("types_out", edtd.num_types());
  reduce_span.End();
  StatusOr<SubsetApproximations> approximations =
      SubsetConstruction(edtd, upper, !upper, budget);
  if (!approximations.ok()) return approximations.status();
  return upper ? *std::move(approximations->upper)
               : *std::move(approximations->lower);
}

}  // namespace

// Each phase is its own span so `stap explain` and the trace timeline show
// where an adversarial schema spends its states; the spans keep their
// upper.* names whichever rules run.
StatusOr<SubsetApproximations> SubsetConstruction(const Edtd& edtd,
                                                  bool upper, bool lower,
                                                  Budget* budget) {
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

  // Both results share everything but their contents.
  DfaXsd shape;
  shape.sigma = edtd.sigma;
  for (int tau : edtd.start_types) {
    StateSetInsert(shape.start_symbols, edtd.mu[tau]);
  }
  shape.automaton = Dfa(next_id, edtd.num_symbols());
  shape.automaton.SetInitial(0);
  shape.state_label.assign(next_id, kNoSymbol);
  shape.content.assign(next_id, Dfa::EmptyLanguage(edtd.num_symbols()));

  // merged_types[q]: the types state q merges, all labeled state_label[q].
  SubsetApproximations result;
  result.single_type = true;
  std::vector<std::vector<int>> merged_types(next_id);
  for (int s = 0; s < n; ++s) {
    const int q = remap[s];
    if (q == kNoState) continue;
    for (int a = 0; a < edtd.num_symbols(); ++a) {
      int t = determinized.Next(s, a);
      if (t != kNoState && remap[t] != kNoState) {
        shape.automaton.SetTransition(q, a, remap[t]);
      }
    }
    if (q == 0) continue;
    result.single_type = result.single_type && subsets[s].size() == 1;
    for (int state : subsets[s]) {
      STAP_CHECK(state != TypeAutomaton::kInit);
      merged_types[q].push_back(TypeAutomaton::TypeOfState(state));
    }
    shape.state_label[q] = edtd.mu[merged_types[q][0]];
    for (int tau : merged_types[q]) {
      STAP_CHECK(edtd.mu[tau] == shape.state_label[q]);
    }
  }

  // A merged state's content depends only on the set of its members'
  // distinct content images: a union or intersection is unchanged by
  // duplicate operands, and both rules end in Minimize, whose output is
  // canonical. So each rule runs once per distinct set, on the least type
  // of each image (image ids are handed out in type order, so sorted ids
  // give sorted representatives), and states with the same set share its
  // content byte for byte. On a set of one image both rules minimize that
  // image, so one call serves both results.
  Interner<std::vector<int>, IntVectorHash> image_ids(edtd.num_types());
  std::vector<int> image_of(edtd.num_types());
  std::vector<int> representative;
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    auto [id, inserted] = image_ids.Intern(ImageKey(
        HomomorphicImage(edtd.content[tau], edtd.mu, edtd.num_symbols())));
    image_of[tau] = id;
    if (inserted) representative.push_back(tau);
  }
  static Counter* const rule_counter = GetCounter("approx.content_rules");
  Interner<std::vector<int>, IntVectorHash> content_ids;
  std::vector<Dfa> upper_contents, lower_contents;
  // Per content id, its counted source or null (CountedUnionSource); the
  // intersection rule keeps one only for a set of one image, where it is
  // the union rule's.
  std::vector<RegexPtr> upper_sources, lower_sources;
  std::vector<int> content_of(next_id, 0);
  std::vector<int> images, operands;
  int64_t rule_calls = 0;
  result.lower_is_upper = true;
  Status status;
  for (int q = 1; q < next_id; ++q) {
    images.clear();
    for (int tau : merged_types[q]) images.push_back(image_of[tau]);
    std::sort(images.begin(), images.end());
    images.erase(std::unique(images.begin(), images.end()), images.end());
    auto [id, inserted] = content_ids.Intern(images);
    content_of[q] = id;
    if (!inserted) continue;
    operands.clear();
    for (int image : images) operands.push_back(representative[image]);
    const bool one_image = operands.size() == 1;
    result.lower_is_upper = result.lower_is_upper && one_image;
    if (upper || (lower && one_image)) {
      ++rule_calls;
      StatusOr<Dfa> content = UnionRule(edtd, operands, budget);
      if (!content.ok()) {
        status = content.status();
        break;
      }
      RegexPtr source = CountedUnionSource(edtd, operands);
      // On one image the union is also the intersection.
      if (upper && lower && one_image) {
        lower_contents.push_back(*content);
        lower_sources.push_back(source);
      }
      (upper ? upper_contents : lower_contents).push_back(*std::move(content));
      (upper ? upper_sources : lower_sources).push_back(std::move(source));
    }
    if (lower && !one_image) {
      ++rule_calls;
      StatusOr<Dfa> content = IntersectionRule(edtd, operands, budget);
      if (!content.ok()) {
        status = content.status();
        break;
      }
      lower_contents.push_back(*std::move(content));
      lower_sources.push_back(nullptr);
    }
  }
  rule_counter->Increment(rule_calls);
  merge_span.AddArg("distinct_contents", content_ids.size());
  merge_span.AddArg("content_rules", rule_calls);
  if (!status.ok()) return status;
  merge_span.AddArg("merged_states", next_id);

  // States with the same content id share its DFA and, by pointer, its
  // source; an XSD with no counted source keeps no provenance table.
  auto with_contents = [&](DfaXsd xsd, const std::vector<Dfa>& contents,
                           const std::vector<RegexPtr>& sources) {
    const bool counted =
        std::any_of(sources.begin(), sources.end(),
                    [](const RegexPtr& source) { return source != nullptr; });
    if (counted) xsd.content_source.resize(next_id);
    for (int q = 1; q < next_id; ++q) {
      xsd.content[q] = contents[content_of[q]];
      if (counted) xsd.content_source[q] = sources[content_of[q]];
    }
    xsd.CheckWellFormed();
    return xsd;
  };
  if (upper) {
    result.upper = with_contents(lower ? shape : std::move(shape),
                                 upper_contents, upper_sources);
  }
  if (lower) {
    result.lower =
        with_contents(std::move(shape), lower_contents, lower_sources);
  }
  return result;
}

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

  StatusOr<DfaXsd> xsd = ReduceAndApproximate(input, /*upper=*/true, budget);
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

  StatusOr<DfaXsd> xsd =
      ReduceAndApproximate(input, /*upper=*/false, budget);
  if (!xsd.ok()) return xsd.status();
  merged_states->Increment(xsd->automaton.num_states());
  span.AddArg("xsd_states", xsd->automaton.num_states());
  return xsd;
}

}  // namespace stap
