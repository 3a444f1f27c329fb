// Differential test for the native single-type pipeline: MinimizeXsd,
// StEdtdFromDfaXsd and XsdToText (schema/minimize.h, single_type.h,
// text_format.h) must agree byte for byte with the stEDTD round trip in
// tests/oracles/xsd_minimize.h, which reduces and prints through the
// N-type stEDTD view.
//
// Inputs: the example schemas (the counted XSDs also with every type
// doubled, and their contents against the Moore oracle), the paper's
// families, random EDTDs through Construction 3.1 (with and without
// content minimization), random stEDTDs with counted provenance, and raw
// unreduced DfaXsds — random labels and transitions, unminimized
// contents, unproductive and unreachable states, start symbols with no
// live transition, and provenance that the reduction must drop or keep.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracles/map_kernels.h"
#include "oracles/xsd_minimize.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/xsd_io.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

std::string SourceText(const RegexPtr& source, const Alphabet& alphabet) {
  return source == nullptr ? "<none>" : source->ToString(alphabet);
}

// The native and the round-trip pipeline on one input: the minimized
// XSD field by field, every provenance regex, and the printed text.
void ExpectPipelinesAgree(const DfaXsd& input, const std::string& name) {
  SCOPED_TRACE(name);
  DfaXsd native = MinimizeXsd(input);
  DfaXsd oracle = MinimizeXsdViaStEdtd(input);
  EXPECT_TRUE(XsdStructurallyEqual(native, oracle));
  ASSERT_EQ(native.content_source.size(), oracle.content_source.size());
  for (size_t q = 0; q < native.content_source.size(); ++q) {
    EXPECT_EQ(SourceText(native.content_source[q], native.sigma),
              SourceText(oracle.content_source[q], oracle.sigma))
        << "state " << q;
  }
  StatusOr<std::string> text = XsdToText(input, nullptr);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text, SchemaToText(StEdtdFromDfaXsdViaStEdtd(oracle)));
}

// The lift alone, on any well-formed input (reduced or not).
void ExpectLiftsAgree(const DfaXsd& input, const std::string& name) {
  SCOPED_TRACE(name);
  Edtd native = StEdtdFromDfaXsd(input);
  Edtd oracle = StEdtdFromDfaXsdViaStEdtd(input);
  EXPECT_EQ(native.types, oracle.types);
  EXPECT_EQ(native.mu, oracle.mu);
  EXPECT_EQ(native.start_types, oracle.start_types);
  EXPECT_EQ(native.content, oracle.content);
  ASSERT_EQ(native.content_source.size(), oracle.content_source.size());
  for (size_t tau = 0; tau < native.content_source.size(); ++tau) {
    EXPECT_EQ(SourceText(native.content_source[tau], native.types),
              SourceText(oracle.content_source[tau], oracle.types))
        << "type " << tau;
  }
  EXPECT_EQ(SchemaToText(native), SchemaToText(oracle));
}

void ExpectAgree(const DfaXsd& input, const std::string& name) {
  ExpectLiftsAgree(input, name);
  ExpectPipelinesAgree(input, name);
}

// Every way a schema enters the printer: Construction 3.1 of it, and —
// when it is single-type — its own XSD, reduced and unreduced.
void ExpectAgreeOnSchema(const Edtd& edtd, const std::string& name) {
  ExpectAgree(MinimalUpperApproximation(edtd), name + "/upper");
  Edtd reduced = ReduceEdtd(edtd);
  if (IsSingleType(reduced)) {
    ExpectAgree(DfaXsdFromStEdtd(reduced), name + "/xsd");
  }
  if (IsSingleType(edtd)) {
    ExpectAgree(DfaXsdFromStEdtd(edtd), name + "/unreduced");
  }
}

TEST(XsdMinimizeDifferentialTest, Examples) {
  const std::string dir = STAP_EXAMPLES_DIR;
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
    ExpectAgreeOnSchema(*edtd, file);
  }
}

// An equivalent DfaXsd with every type doubled: each non-initial state
// gets a twin with the same label, content and provenance, and every
// transition enters the original target or its twin at random. The
// XSD-level refinement has to merge each pair back.
DfaXsd WithTwinTypes(const DfaXsd& xsd, std::mt19937* rng) {
  const int n = xsd.automaton.num_states();
  const int init = xsd.automaton.initial();
  std::vector<int> original(n);
  std::vector<int> twin(n, kNoState);
  for (int q = 0; q < n; ++q) {
    original[q] = q;
    if (q != init) {
      twin[q] = static_cast<int>(original.size());
      original.push_back(q);
    }
  }
  const int total = static_cast<int>(original.size());
  DfaXsd result = xsd;
  result.automaton = Dfa(total, xsd.sigma.size());
  result.automaton.SetInitial(init);
  result.state_label.resize(total);
  result.content.resize(total);
  if (!result.content_source.empty()) result.content_source.resize(total);
  for (int p = n; p < total; ++p) {
    result.state_label[p] = xsd.state_label[original[p]];
    result.content[p] = xsd.content[original[p]];
    if (!result.content_source.empty()) {
      result.content_source[p] = xsd.content_source[original[p]];
    }
  }
  for (int p = 0; p < total; ++p) {
    for (int a = 0; a < xsd.sigma.size(); ++a) {
      const int r = xsd.automaton.Next(original[p], a);
      if (r == kNoState) continue;
      const bool use_twin = twin[r] != kNoState && (*rng)() % 2 == 0;
      result.automaton.SetTransition(p, a, use_twin ? twin[r] : r);
    }
  }
  result.CheckWellFormed();
  return result;
}

TEST(XsdMinimizeDifferentialTest, CountedExampleXsds) {
  // The example XSDs whose maxOccurs compile to long counted chains: every
  // content DFA of their upper approximation minimizes as the Moore
  // oracle does, and a copy with every type doubled minimizes back to
  // the same XSD on both pipelines.
  std::mt19937 rng(MixSeed(0x7715));
  const std::string dir = STAP_EXAMPLES_DIR;
  struct Counted {
    const char* file;
    int max_occurs;
  };
  for (const Counted& example : {Counted{"xsd/catalog.xsd", 500},
                                 Counted{"xsd/article.xsd", 100},
                                 Counted{"xsd/purchase_order.xsd", 100}}) {
    SCOPED_TRACE(example.file);
    std::ifstream in(dir + "/" + example.file);
    ASSERT_TRUE(in);
    std::stringstream buffer;
    buffer << in.rdbuf();
    StatusOr<Edtd> edtd = ImportXsd(buffer.str());
    ASSERT_TRUE(edtd.ok()) << edtd.status();
    const DfaXsd upper = MinimalUpperApproximation(*edtd);
    int largest = 0;
    for (const Dfa& content : upper.content) {
      largest = std::max(largest, content.num_states());
      EXPECT_EQ(*Minimize(content), MapMinimize(content));
    }
    EXPECT_GT(largest, example.max_occurs);
    const DfaXsd twins = WithTwinTypes(upper, &rng);
    ExpectAgree(twins, std::string(example.file) + "/twins");
    EXPECT_TRUE(XsdStructurallyEqual(MinimizeXsd(twins), MinimizeXsd(upper)));
  }
}

TEST(XsdMinimizeDifferentialTest, PaperFamilies) {
  for (int n = 1; n <= 9; ++n) {
    ExpectAgreeOnSchema(Theorem32Family(n), "theorem32/" + std::to_string(n));
  }
  for (int n = 3; n <= 5; ++n) {
    const std::string suffix = "/" + std::to_string(n);
    auto [a36, b36] = Theorem36Family(n);
    ExpectAgree(*UpperUnion(a36, b36), "theorem36_union" + suffix);
    ExpectAgreeOnSchema(a36, "theorem36_d1" + suffix);
    auto [a38, b38] = Theorem38Family(n);
    ExpectAgree(*UpperIntersection(a38, b38), "theorem38_meet" + suffix);
    ExpectAgreeOnSchema(Theorem43LowerApproximation(n), "theorem43" + suffix);
    ExpectAgreeOnSchema(Theorem411LowerApproximation(n),
                        "theorem411" + suffix);
    ExpectAgreeOnSchema(CountedFamily(n, 2 * n), "counted" + suffix);
  }
  auto [d1, d2] = Theorem43Schemas();
  ExpectAgree(*UpperUnion(d1, d2), "theorem43_union");
  ExpectAgree(*UpperComplement(Theorem411Dtd()), "theorem411_complement");
  ExpectAgreeOnSchema(Example26Edtd(), "example26");
}

class RandomInputTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInputTest, Construction31Outputs) {
  std::mt19937 rng(MixSeed(GetParam() * 7919ull + 31));
  for (int round = 0; round < 12; ++round) {
    RandomSchemaParams params;
    params.num_symbols = 2 + round % 3;
    params.num_types = 3 + round % 5;
    params.repeat_percent = round % 2 == 0 ? 0 : 40;
    Edtd edtd = RandomEdtd(&rng, params);
    const std::string name = "random_edtd/" + std::to_string(round);
    ExpectAgree(MinimalUpperApproximation(edtd), name);
    Edtd st = RandomStEdtd(&rng, params);
    ExpectAgree(DfaXsdFromStEdtd(st), "random_st/" + std::to_string(round));
  }
}

// A random regex over Σ with at least one counted repetition.
RegexPtr RandomCountedRegex(std::mt19937* rng, int num_symbols) {
  auto symbol = [&] {
    return Regex::Symbol(static_cast<int>((*rng)() % num_symbols));
  };
  const int min = static_cast<int>((*rng)() % 3);
  const int max = min + 2 + static_cast<int>((*rng)() % 3);
  RegexPtr body = (*rng)() % 2 == 0 ? symbol()
                                    : Regex::Union({symbol(), symbol()});
  std::vector<RegexPtr> parts;
  if ((*rng)() % 2 == 0) parts.push_back(symbol());
  parts.push_back(Regex::Repeat(std::move(body), min, max));
  if ((*rng)() % 3 == 0) parts.push_back(Regex::Optional(symbol()));
  return Regex::Concat(std::move(parts));
}

// A well-formed but unreduced DfaXsd: q_init anywhere, random state
// labels, random label-respecting transitions (q_init included), random
// start symbols (some with no transition), and unminimized random
// contents — a third of them compiled from a counted regex kept as
// provenance, the rest from random NFAs.
DfaXsd RandomRawXsd(std::mt19937* rng, int num_states, int num_symbols) {
  auto chance = [&](int percent) {
    return static_cast<int>((*rng)() % 100) < percent;
  };
  DfaXsd xsd;
  for (int a = 0; a < num_symbols; ++a) {
    xsd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
  }
  const int init = chance(75) ? 0 : static_cast<int>((*rng)() % num_states);
  xsd.automaton = Dfa(num_states, num_symbols);
  xsd.automaton.SetInitial(init);
  xsd.state_label.assign(num_states, kNoSymbol);
  std::vector<std::vector<int>> by_label(num_symbols);
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    xsd.state_label[q] = static_cast<int>((*rng)() % num_symbols);
    by_label[xsd.state_label[q]].push_back(q);
  }
  for (int q = 0; q < num_states; ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      if (by_label[a].empty() || !chance(70)) continue;
      xsd.automaton.SetTransition(
          q, a, by_label[a][(*rng)() % by_label[a].size()]);
    }
  }
  for (int a = 0; a < num_symbols; ++a) {
    if (chance(60)) xsd.start_symbols.push_back(a);
  }
  xsd.content.assign(num_states, Dfa::EmptyLanguage(num_symbols));
  xsd.content_source.assign(num_states, nullptr);
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    if (chance(33)) {
      RegexPtr source = RandomCountedRegex(rng, num_symbols);
      xsd.content[q] =
          *Determinize(*GlushkovAutomaton(*source, num_symbols));
      xsd.content_source[q] = std::move(source);
    } else {
      const int size = 1 + static_cast<int>((*rng)() % 4);
      xsd.content[q] = *Determinize(RandomNfa(rng, size, num_symbols, 2));
    }
  }
  xsd.CheckWellFormed();
  return xsd;
}

TEST_P(RandomInputTest, RawUnreducedXsds) {
  std::mt19937 rng(MixSeed(GetParam() * 104729ull + 7));
  int shrunk_nonempty = 0;
  for (int round = 0; round < 40; ++round) {
    const int num_states = 2 + round % 12;
    const int num_symbols = 1 + round % 4;
    DfaXsd raw = RandomRawXsd(&rng, num_states, num_symbols);
    if (round % 5 == 0) raw.content_source.clear();
    ExpectAgree(raw, "raw/" + std::to_string(round));
    const int kept = MinimizeXsd(raw).automaton.num_states();
    if (kept > 1 && kept < num_states) ++shrunk_nonempty;
  }
  // The stream must exercise pruning and merging, not just empty
  // languages.
  EXPECT_GT(shrunk_nonempty, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInputTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
