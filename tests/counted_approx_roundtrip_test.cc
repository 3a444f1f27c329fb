// Round trip of the counted provenance Construction 3.1 keeps: a merged
// state's source is the union of its members' μ-substituted sources
// (approx/upper.h), and XsdToText prints it in place of the state
// elimination. Printing, re-parsing and minimizing again must give back
// the minimized approximation exactly, so every printed source denotes
// its state's content.
//
// Inputs: random EDTDs with counted content models, the counted example
// XSDs, and the counted family at n = 50. Each input's upper
// approximation is checked, and its lower one (the intersection rule,
// which keeps a source for sets of one image) too.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "stap/approx/upper.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
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

// `edtd` with its labels renamed into `sigma` (a superset of them, by
// name), so XSDs built from it compare field by field with XSDs over
// `sigma`.
Edtd OverSigma(const Edtd& edtd, const Alphabet& sigma) {
  Edtd result = edtd;
  result.sigma = sigma;
  for (int& label : result.mu) {
    label = sigma.Find(edtd.sigma.Name(label));
    EXPECT_NE(label, kNoSymbol);
  }
  result.CheckWellFormed();
  return result;
}

// Prints `approximation` with XsdToText, re-parses the text and checks
// that its minimized XSD is the minimized approximation. Returns the
// printed text.
std::string ExpectRoundTrip(const DfaXsd& approximation,
                            const std::string& name) {
  SCOPED_TRACE(name);
  StatusOr<DfaXsd> minimized = MinimizeXsd(approximation, nullptr);
  StatusOr<std::string> text = XsdToText(approximation, nullptr);
  if (!minimized.ok() || !text.ok()) {
    ADD_FAILURE() << "a null budget never exhausts";
    return "";
  }
  StatusOr<Edtd> parsed = ParseSchema(*text);
  if (!parsed.ok()) {
    ADD_FAILURE() << parsed.status() << "\n" << *text;
    return *text;
  }
  const Edtd reduced = ReduceEdtd(OverSigma(*parsed, approximation.sigma));
  EXPECT_TRUE(IsSingleType(reduced)) << *text;
  StatusOr<DfaXsd> back = MinimizeXsd(DfaXsdFromStEdtd(reduced), nullptr);
  EXPECT_TRUE(back.ok() && XsdStructurallyEqual(*back, *minimized))
      << *text;
  return *text;
}

// Both approximations of `edtd`; returns the upper one's text.
std::string ExpectRoundTrips(const Edtd& edtd, const std::string& name) {
  StatusOr<DfaXsd> upper = MinimalUpperApproximation(edtd, nullptr);
  StatusOr<DfaXsd> lower = SubsetIntersectionLower(edtd, nullptr);
  EXPECT_TRUE(upper.ok() && lower.ok());
  if (!upper.ok() || !lower.ok()) return "";
  ExpectRoundTrip(*lower, name + "/lower");
  return ExpectRoundTrip(*upper, name + "/upper");
}

TEST(CountedApproxRoundTripTest, RandomCountedEdtds) {
  std::mt19937 rng(MixSeed(9100));
  int counted_outputs = 0;
  for (int i = 0; i < 60; ++i) {
    RandomSchemaParams params;
    params.num_symbols = 2 + i % 2;
    params.num_types = 3 + i % 3;
    params.repeat_percent = 50;
    const Edtd edtd = RandomEdtd(&rng, params);
    const std::string text =
        ExpectRoundTrips(edtd, "random " + std::to_string(i) + "\n" +
                                   SchemaToText(edtd));
    if (text.find('{') != std::string::npos) ++counted_outputs;
  }
  // Sources survive Construction 3.1, merged states included.
  EXPECT_GT(counted_outputs, 0);
}

TEST(CountedApproxRoundTripTest, CountedExampleXsds) {
  const std::string dir = STAP_EXAMPLES_DIR;
  for (const char* file : {"xsd/article.xsd", "xsd/catalog.xsd",
                           "xsd/purchase_order.xsd", "xsd/recipe.xsd"}) {
    std::ifstream in(dir + "/" + file);
    ASSERT_TRUE(in) << file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    StatusOr<Edtd> edtd = ImportXsd(buffer.str());
    ASSERT_TRUE(edtd.ok()) << file << ": " << edtd.status();
    const std::string text = ExpectRoundTrips(*edtd, file);
    EXPECT_NE(text.find('{'), std::string::npos) << file << "\n" << text;
  }
}

TEST(CountedApproxRoundTripTest, CountedFamily) {
  const std::string text = ExpectRoundTrips(CountedFamily(50, 100), "counted");
  EXPECT_NE(text.find("{50,100}"), std::string::npos) << text;
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
