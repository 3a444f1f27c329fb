// Differential test for the nested lowering of counted repetition
// (regex/glushkov.h) against the flat expansion it replaced
// (oracles/regex_kernels.h). On random expressions with counted bounds —
// nested repeats, nullable and choice bodies, r{n,} and r{0,m} — and on
// the counted family, both lowerings must mint the same positions and
// compile to the same minimal DFA, while the nested one charges no more
// follow edges. On the families, on every content model of the nine
// examples and on random schemas drawn as the approx_corpus workload
// draws its own, its subset construction must create no more states
// either; on random expressions the largest ratio is reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "oracles/regex_kernels.h"
#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/base/budget.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/regex/ast.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/text_format.h"
#include "stap/schema/xsd_io.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

constexpr int kNumSymbols = 3;

// A random expression over kNumSymbols symbols in which about a third of
// the inner nodes are counted repetitions with small bounds.
RegexPtr RandomCountedRegex(std::mt19937* rng, int depth) {
  if (depth == 0 || (*rng)() % 5 == 0) {
    if ((*rng)() % 8 == 0) return Regex::Epsilon();
    return Regex::Symbol(static_cast<int>((*rng)() % kNumSymbols));
  }
  switch ((*rng)() % 9) {
    case 0:
      return Regex::Union({RandomCountedRegex(rng, depth - 1),
                           RandomCountedRegex(rng, depth - 1)});
    case 1:
    case 2:
      return Regex::Concat({RandomCountedRegex(rng, depth - 1),
                            RandomCountedRegex(rng, depth - 1)});
    case 3:
      return Regex::Star(RandomCountedRegex(rng, depth - 1));
    case 4:
      return Regex::Optional(RandomCountedRegex(rng, depth - 1));
    default: {
      const int min = static_cast<int>((*rng)() % 4);
      const int max = (*rng)() % 5 == 0
                          ? Regex::kUnboundedRepeat
                          : std::max(min, 1) + static_cast<int>((*rng)() % 5);
      return Regex::Repeat(RandomCountedRegex(rng, depth - 1), min, max);
    }
  }
}

// The charges of one lowering: positions (state quota), follow edges
// (set quota) and the states its subset construction creates.
struct Charges {
  int64_t positions = 0;
  int64_t follow_edges = 0;
  int64_t subset_states = 0;
};

template <typename Lowering>
Charges Charge(const Regex& regex, int num_symbols, Lowering lowering) {
  Charges charges;
  Budget lowering_budget;
  Nfa glushkov = *lowering(regex, num_symbols, &lowering_budget);
  charges.positions = lowering_budget.states_charged();
  charges.follow_edges = lowering_budget.sets_charged();
  Budget determinize_budget;
  EXPECT_TRUE(Determinize(glushkov, &determinize_budget).ok());
  charges.subset_states = determinize_budget.states_charged();
  return charges;
}

// Checks one expression against the flat oracle and returns the ratio of
// subset-construction states, nested over flat.
double CheckAgainstFlat(const Regex& regex, int num_symbols,
                        const std::string& label) {
  Dfa nested_dfa = *RegexToDfa(regex, num_symbols);
  Dfa flat_dfa =
      *Minimize(*Determinize(*FlatGlushkovAutomaton(regex, num_symbols)));
  EXPECT_TRUE(nested_dfa == flat_dfa) << label;

  const Charges nested = Charge(
      regex, num_symbols, [](const Regex& r, int k, Budget* budget) {
        return GlushkovAutomaton(r, k, budget);
      });
  const Charges flat = Charge(
      regex, num_symbols, [](const Regex& r, int k, Budget* budget) {
        return FlatGlushkovAutomaton(r, k, budget);
      });
  EXPECT_EQ(nested.positions, flat.positions) << label;
  EXPECT_LE(nested.follow_edges, flat.follow_edges) << label;
  return static_cast<double>(nested.subset_states) /
         static_cast<double>(flat.subset_states);
}

class RandomCountedTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCountedTest, SameDfaSamePositionsNoMoreFollowEdges) {
  std::mt19937 rng(MixSeed(2500 + GetParam()));
  Alphabet alphabet({"a", "b", "c"});
  double worst_ratio = 0;
  std::string worst;
  for (int i = 0; i < 60; ++i) {
    RegexPtr regex = RandomCountedRegex(&rng, 4);
    const std::string text = regex->ToString(alphabet);
    const double ratio = CheckAgainstFlat(*regex, kNumSymbols, text);
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst = text;
    }
  }
  // Nesting may split a subset the flat form keeps whole, so on random
  // inputs the subset construction is not bounded state for state; it
  // is reported rather than asserted.
  std::printf("largest subset-state ratio nested/flat: %.3f on %s\n",
              worst_ratio, worst.c_str());
  RecordProperty("largest_subset_state_ratio", std::to_string(worst_ratio));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCountedTest, ::testing::Range(0, 10));

// Hand-picked shapes that reach every branch of the lowering: choice
// and nullable bodies, r{n,}, nested repeats, min = 0 and min = max.
TEST(CountedLoweringTest, ShapesAgreeWithFlat) {
  Alphabet alphabet({"a", "b", "c"});
  for (const char* text :
       {"a{2,5}", "a{0,7}", "a{3}", "a{2,}", "(a | b c){0,6}",
        "(a b?){1,5} c", "(a? b?){2,4}", "(a*){1,3}", "((a b){1,3}){0,4}",
        "(a{2,3} | b){0,5} c{1,}", "(a | b)* a (a | b){2,6}",
        "((a | %) b){0,4}", "(a{0,2}){2,3}", "c (a{0,3} b)* a{1,2}"}) {
    StatusOr<RegexPtr> regex = ParseRegex(text, &alphabet, false);
    ASSERT_TRUE(regex.ok()) << text << ": " << regex.status();
    CheckAgainstFlat(**regex, alphabet.size(), text);
  }
}

// On the families the nested subset construction creates no more states
// than the flat one: the counted family's Doc content and the plain
// counted shapes, at bounds up to 1000.
TEST(CountedLoweringTest, FamiliesChargeNoMoreSubsetStates) {
  for (int n : {1, 10, 100, 400, 1000}) {
    Edtd edtd = CountedFamily(n, 2 * n);
    for (int tau = 0; tau < edtd.num_types(); ++tau) {
      const RegexPtr& source = edtd.content_source[tau];
      ASSERT_NE(source, nullptr);
      const std::string label =
          "counted " + std::to_string(n) + " " + edtd.types.Name(tau);
      EXPECT_LE(CheckAgainstFlat(*source, edtd.num_types(), label), 1.0)
          << label;
    }
  }
  Alphabet alphabet({"a", "b", "c"});
  for (int m : {2, 50, 500}) {
    const std::string bound = std::to_string(m);
    for (const std::string& text :
         {"a{0," + bound + "}", "a{" + bound + "," + std::to_string(2 * m) +
                                    "}",
          "(a b){1," + bound + "}", "(a | b c){0," + bound + "} c",
          "b (a | c){1," + bound + "}"}) {
      StatusOr<RegexPtr> regex = ParseRegex(text, &alphabet, false);
      ASSERT_TRUE(regex.ok()) << text;
      EXPECT_LE(CheckAgainstFlat(**regex, alphabet.size(), text), 1.0)
          << text;
    }
  }
}

// True if a counted repetition occurs inside another one's body, the
// shape of the largest subset-state ratios on random inputs.
bool HasRepeatInRepeat(const Regex& regex, bool inside_repeat = false) {
  const bool repeat = regex.kind() == RegexKind::kRepeat;
  if (repeat && inside_repeat) return true;
  for (const RegexPtr& child : regex.children()) {
    if (HasRepeatInRepeat(*child, inside_repeat || repeat)) return true;
  }
  return false;
}

// Nesting may split subsets with any non-nullable counted body (a star
// inside it is enough), so the bound is asserted on every content model
// of the nine examples and of random schemas drawn as the approx_corpus
// workload draws its own; its remaining inputs, the Theorem 3.2 family,
// do not count.
TEST(CountedLoweringTest, ExamplesChargeNoMoreSubsetStates) {
  const std::string dir = STAP_EXAMPLES_DIR;
  int models = 0;
  int counted = 0;
  int repeat_in_repeat = 0;
  int fewer_states = 0;
  for (const char* file :
       {"library_v1.stap", "library_v2.stap", "docbook_lite.stap",
        "jats_lite.stap", "relaxng_style.stap", "xsd/article.xsd",
        "xsd/catalog.xsd", "xsd/purchase_order.xsd", "xsd/recipe.xsd"}) {
    std::ifstream in(dir + "/" + file);
    ASSERT_TRUE(in) << file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    StatusOr<Edtd> edtd =
        LooksLikeXml(text) ? ImportXsd(text) : ParseSchema(text);
    ASSERT_TRUE(edtd.ok()) << file << ": " << edtd.status();
    ASSERT_EQ(edtd->content_source.size(),
              static_cast<size_t>(edtd->num_types()))
        << file;
    for (int tau = 0; tau < edtd->num_types(); ++tau) {
      const RegexPtr& source = edtd->content_source[tau];
      ASSERT_NE(source, nullptr) << file;
      const std::string label =
          std::string(file) + " " + edtd->types.Name(tau);
      const double ratio =
          CheckAgainstFlat(*source, edtd->num_types(), label);
      EXPECT_LE(ratio, 1.0) << label;
      ++models;
      if (ratio < 1.0) ++fewer_states;
      if (source->ContainsRepeat()) ++counted;
      if (HasRepeatInRepeat(*source)) ++repeat_in_repeat;
    }
  }
  std::printf(
      "content models: %d, counted: %d, repeat inside repeat: %d, "
      "fewer subset states nested: %d\n",
      models, counted, repeat_in_repeat, fewer_states);
  RecordProperty("repeat_in_repeat_models", repeat_in_repeat);
}

// Random schemas with counted content models u x{n,m} v, drawn with the
// approx_corpus workload's parameters and read back from their text.
TEST(CountedLoweringTest, RandomSchemasChargeNoMoreSubsetStates) {
  std::mt19937 rng(MixSeed(2600));
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.repeat_percent = 30;
  for (int i = 0; i < 200; ++i) {
    const std::string text = SchemaToText(RandomEdtd(&rng, params));
    StatusOr<Edtd> edtd = ParseSchema(text);
    ASSERT_TRUE(edtd.ok()) << text;
    for (int tau = 0; tau < edtd->num_types(); ++tau) {
      const RegexPtr& source = edtd->content_source[tau];
      ASSERT_NE(source, nullptr) << text;
      EXPECT_LE(CheckAgainstFlat(*source, edtd->num_types(), text), 1.0)
          << text;
    }
  }
}

// The guard on the bound itself: a{0,m} mints m positions and charges
// at most 2m + c follow edges (the flat expansion charges m(m-1)/2).
TEST(CountedLoweringTest, OptionalChainIsLinear) {
  for (int m : {10, 100, 1000, 5000}) {
    RegexPtr regex = Regex::Repeat(Regex::Symbol(0), 0, m);
    Budget budget;
    StatusOr<Nfa> glushkov = GlushkovAutomaton(*regex, 1, &budget);
    ASSERT_TRUE(glushkov.ok());
    EXPECT_EQ(budget.states_charged(), m);
    EXPECT_LE(budget.sets_charged(), 2 * m + 2) << "a{0," << m << "}";
    StatusOr<Dfa> dfa = RegexToDfa(*regex, 1);
    ASSERT_TRUE(dfa.ok());
    EXPECT_EQ(dfa->num_states(), m + 1);
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
