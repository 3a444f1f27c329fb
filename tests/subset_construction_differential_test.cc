// Differential test for Construction 3.1's content rules: the library
// (approx/upper.h) runs a rule once per distinct set of member content
// images, and must agree byte for byte with tests/oracles/
// subset_construction.h, which runs it once per merged state on every
// member type. Both the union rule (MinimalUpperApproximation) and the
// intersection rule (SubsetIntersectionLower) are checked, and so is the
// one-run core both call (SubsetConstruction), asked for both
// approximations at once as `stap measure` asks: each of its results
// must equal its oracle, its single_type must be IsSingleType of the
// reduced input, and when it reports lower_is_upper the two XSDs must be
// equal.
//
// Inputs: random EDTDs, the same with every type doubled (each twin has
// its original's label and content up to renaming types by their twins,
// so many types share one image), Theorem 3.2's family, and the example
// schemas.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "oracles/subset_construction.h"
#include "stap/approx/upper.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/xsd_io.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

void ExpectAgree(const Edtd& edtd, const std::string& name) {
  SCOPED_TRACE(name);
  StatusOr<DfaXsd> upper = MinimalUpperApproximation(edtd, nullptr);
  StatusOr<DfaXsd> upper_oracle = PerSubsetUpperApproximation(edtd);
  ASSERT_TRUE(upper.ok()) << upper.status();
  ASSERT_TRUE(upper_oracle.ok()) << upper_oracle.status();
  EXPECT_TRUE(XsdStructurallyEqual(*upper, *upper_oracle));
  StatusOr<DfaXsd> lower = SubsetIntersectionLower(edtd);
  StatusOr<DfaXsd> lower_oracle = PerSubsetIntersectionLower(edtd);
  ASSERT_TRUE(lower.ok()) << lower.status();
  ASSERT_TRUE(lower_oracle.ok()) << lower_oracle.status();
  EXPECT_TRUE(XsdStructurallyEqual(*lower, *lower_oracle));

  const Edtd reduced = ReduceEdtd(edtd);
  StatusOr<SubsetApproximations> both =
      SubsetConstruction(reduced, /*upper=*/true, /*lower=*/true, nullptr);
  ASSERT_TRUE(both.ok()) << both.status();
  ASSERT_TRUE(both->upper.has_value() && both->lower.has_value());
  EXPECT_TRUE(XsdStructurallyEqual(*both->upper, *upper_oracle));
  EXPECT_TRUE(XsdStructurallyEqual(*both->lower, *lower_oracle));
  EXPECT_EQ(both->single_type, IsSingleType(reduced));
  if (both->lower_is_upper) {
    EXPECT_TRUE(XsdStructurallyEqual(*both->upper, *both->lower));
  }
}

// The same language with every type doubled: type τ + N is τ's twin,
// with τ's label, and each content transition on a type σ enters σ or
// its twin at random. Start types keep one member of each pair, at
// random.
Edtd WithTwinTypes(const Edtd& edtd, std::mt19937* rng) {
  const int n = edtd.num_types();
  Edtd result;
  result.sigma = edtd.sigma;
  for (int copy = 0; copy < 2; ++copy) {
    for (int tau = 0; tau < n; ++tau) {
      result.types.Intern(edtd.types.Name(tau) + (copy == 0 ? "" : "'"));
      result.mu.push_back(edtd.mu[tau]);
    }
  }
  for (int tau : edtd.start_types) {
    StateSetInsert(result.start_types, (*rng)() % 2 == 0 ? tau : tau + n);
  }
  for (int copy = 0; copy < 2; ++copy) {
    for (int tau = 0; tau < n; ++tau) {
      const Dfa& content = edtd.content[tau];
      Dfa twin(content.num_states(), 2 * n);
      if (content.num_states() > 0) twin.SetInitial(content.initial());
      for (int s = 0; s < content.num_states(); ++s) {
        if (content.IsFinal(s)) twin.SetFinal(s);
        for (int sigma = 0; sigma < n; ++sigma) {
          const int r = content.Next(s, sigma);
          if (r == kNoState) continue;
          twin.SetTransition(s, (*rng)() % 2 == 0 ? sigma : sigma + n, r);
        }
      }
      result.content.push_back(std::move(twin));
    }
  }
  result.CheckWellFormed();
  return result;
}

class RandomInputTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInputTest, RandomEdtdsAndTheirTwins) {
  std::mt19937 rng(MixSeed(GetParam() * 6271ull + 3));
  for (int round = 0; round < 10; ++round) {
    RandomSchemaParams params;
    params.num_symbols = 2 + round % 3;
    params.num_types = 3 + round % 5;
    params.repeat_percent = round % 2 == 0 ? 0 : 40;
    const Edtd edtd = RandomEdtd(&rng, params);
    const std::string name = "random/" + std::to_string(round);
    ExpectAgree(edtd, name);
    ExpectAgree(WithTwinTypes(edtd, &rng), name + "/twins");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInputTest, ::testing::Range(0, 8));

TEST(SubsetConstructionDifferentialTest, Theorem32Family) {
  for (int n = 1; n <= 9; ++n) {
    ExpectAgree(Theorem32Family(n), "theorem32/" + std::to_string(n));
  }
}

TEST(SubsetConstructionDifferentialTest, Examples) {
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
    ExpectAgree(*edtd, file);
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
