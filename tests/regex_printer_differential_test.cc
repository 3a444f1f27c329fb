// Byte-identity test for DFA → regex rendering (regex/from_dfa.h,
// Regex::ToString) against the kernels they replaced
// (oracles/regex_kernels.h): state elimination over the dense arc matrix
// and the tree-walking stream printer. On random DFAs and on counted
// chains of up to 2000 states, the sparse elimination must build the same
// expression and the memoized printer must render it to the same bytes.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "oracles/regex_kernels.h"
#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/regex/ast.h"
#include "stap/regex/from_dfa.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// Renders `dfa` three ways — sparse elimination with the memoized
// printer, sparse elimination with the tree walk, dense elimination with
// the tree walk — and expects one text.
void ExpectSameText(const Dfa& dfa, const Alphabet& alphabet,
                    const std::string& label) {
  RegexPtr sparse = *DfaToRegex(dfa);
  const std::string text = sparse->ToString(alphabet);
  EXPECT_EQ(text, TreeWalkToString(*sparse, alphabet)) << label;
  EXPECT_EQ(text, TreeWalkToString(*DenseDfaToRegex(dfa), alphabet))
      << label;
}

class RandomDfaTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDfaTest, SparseEliminationAndPrinterMatchOracles) {
  std::mt19937 rng(MixSeed(2600 + GetParam()));
  Alphabet alphabet({"a", "b", "c"});
  for (int i = 0; i < 40; ++i) {
    const int num_states = 1 + static_cast<int>(rng() % 5);
    const int num_symbols = 1 + static_cast<int>(rng() % 3);
    const int per_state = 1 + static_cast<int>(rng() % 3);
    Nfa nfa = RandomNfa(&rng, num_states, num_symbols, per_state);
    // The subset construction's raw output keeps dead and unreachable
    // states for DfaToRegex to trim; its minimal form has none.
    Dfa dfa = *Determinize(nfa);
    const std::string label = "seed " + std::to_string(GetParam()) +
                              " draw " + std::to_string(i);
    ExpectSameText(dfa, alphabet, label + " raw");
    ExpectSameText(*Minimize(dfa), alphabet, label + " minimal");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDfaTest, ::testing::Range(0, 10));

TEST(RegexPrinterTest, EmptyAndEpsilonLanguages) {
  Alphabet alphabet({"a"});
  ExpectSameText(Dfa(1, 1), alphabet, "empty");
  Dfa epsilon(1, 1);
  epsilon.SetFinal(0);
  ExpectSameText(epsilon, alphabet, "epsilon");
}

// Counted content models compile to chains: a{n,m}'s minimal DFA has
// m + 1 states in a row. Up to 2000 states, the texts still agree. The
// shapes are those whose text grows quadratically in m; on others, such
// as (a b?){1,m}, state elimination in this order renders exponentially
// long text.
TEST(RegexPrinterTest, CountedChainsMatchOracles) {
  Alphabet alphabet({"a", "b", "c"});
  for (const char* text :
       {"a{0,1999}", "a{1000,1999}", "(a | b){1,1999}", "(a b){0,999}",
        "c (a | b){0,500} a?", "(a b c){1,600}"}) {
    StatusOr<RegexPtr> regex = ParseRegex(text, &alphabet, false);
    ASSERT_TRUE(regex.ok()) << text;
    ExpectSameText(*RegexToDfa(**regex, alphabet.size()), alphabet, text);
  }
  // The counted family's Doc content, Header Item{n,2n} Footer?, at
  // n = 999: 2000 content states.
  Edtd edtd = CountedFamily(999, 1998);
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    ExpectSameText(edtd.content[tau], edtd.types,
                   "counted 999 " + edtd.types.Name(tau));
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
