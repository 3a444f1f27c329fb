// Seeded property test for the XSD frontend: random schemas with counted
// content models must survive export → import → export → import with
// their language intact and their bounds un-expanded, under every
// namespace-prefix spelling; hostile inputs (duplicate types, inverted
// or enormous bounds) must fail cleanly. Runs in the ASan/UBSan CI
// matrix, so the importer's parsing paths get sanitizer coverage on
// randomized documents.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "stap/approx/inclusion.h"
#include "stap/base/budget.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/xsd_io.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// A random DTD-shaped schema (one type per label, so trivially
// single-type) over an acyclic type graph, where each particle carries a
// random occurrence modifier — counted bounds included. Each content
// model references each later type at most once, so the result is
// one-unambiguous and exports without UPA repair.
Edtd RandomCountedSchema(std::mt19937* rng) {
  const int num_types = 3 + static_cast<int>((*rng)() % 4);  // 3..6
  SchemaBuilder builder;
  std::vector<std::string> names;
  for (int i = 0; i < num_types; ++i) {
    names.push_back("T" + std::to_string(i));
  }
  for (int i = 0; i < num_types; ++i) {
    std::string content;
    for (int j = i + 1; j < num_types; ++j) {
      if ((*rng)() % 2 == 0) continue;  // skip this successor
      if (!content.empty()) content += " ";
      content += names[j];
      switch ((*rng)() % 5) {
        case 0:
          break;  // exactly once
        case 1:
          content += "?";
          break;
        case 2:
          content += "*";
          break;
        case 3: {  // bounded counted repetition
          int lo = static_cast<int>((*rng)() % 3);
          int hi = lo + 1 + static_cast<int>((*rng)() % 3);
          content += "{" + std::to_string(lo) + "," + std::to_string(hi) +
                     "}";
          break;
        }
        case 4: {  // unbounded counted repetition
          int lo = 1 + static_cast<int>((*rng)() % 3);
          content += "{" + std::to_string(lo) + ",}";
          break;
        }
      }
    }
    if (content.empty()) content = "%";
    builder.AddType(names[i], "l" + std::to_string(i), content);
  }
  builder.AddStart(names[0]);
  return builder.Build();
}

// Swaps the export's xs: prefix spelling for another binding of the XSD
// namespace, to drive the importer's prefix resolution.
std::string Reprefix(const std::string& xml, const std::string& prefix) {
  std::string out;
  size_t pos = 0;
  while (pos < xml.size()) {
    if (xml.compare(pos, 3, "xs:") == 0) {
      out += prefix.empty() ? "" : prefix + ":";
      pos += 3;
    } else if (xml.compare(pos, 9, "xmlns:xs=") == 0) {
      out += prefix.empty() ? "xmlns=" : "xmlns:" + prefix + "=";
      pos += 9;
    } else {
      out += xml[pos++];
    }
  }
  return out;
}

class CountedRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(CountedRoundTripTest, ExportImportPreservesCountedLanguages) {
  std::mt19937 rng(MixSeed(7300 + GetParam()));
  Edtd schema = ReduceEdtd(RandomCountedSchema(&rng));
  ASSERT_TRUE(IsSingleType(schema));
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));

  std::string exported = *ExportXsd(xsd);
  // The exporter must never fall back to expanding a counted bound into
  // a repeated particle: every counted content model in this family is
  // small in the bounds, so the document stays small too.
  EXPECT_LT(exported.size(), 8192u) << exported;
  StatusOr<Edtd> imported = ImportXsd(exported);
  ASSERT_TRUE(imported.ok()) << imported.status() << "\n" << exported;
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *imported)) << exported;

  // Second generation: provenance survives the re-import's own compile.
  std::string again =
      *ExportXsd(MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(*imported))));
  StatusOr<Edtd> twice = ImportXsd(again);
  ASSERT_TRUE(twice.ok()) << twice.status() << "\n" << again;
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *twice)) << again;
}

TEST_P(CountedRoundTripTest, NamespaceSpellingsAreInterchangeable) {
  std::mt19937 rng(MixSeed(7400 + GetParam()));
  Edtd schema = ReduceEdtd(RandomCountedSchema(&rng));
  std::string exported = *ExportXsd(MinimizeXsd(DfaXsdFromStEdtd(schema)));
  for (const char* prefix : {"xsd", "w", ""}) {
    std::string respelled = Reprefix(exported, prefix);
    StatusOr<Edtd> imported = ImportXsd(respelled);
    ASSERT_TRUE(imported.ok())
        << imported.status() << "\nprefix='" << prefix << "'\n" << respelled;
    EXPECT_TRUE(*SingleTypeEquivalent(schema, *imported)) << respelled;
  }
}

TEST_P(CountedRoundTripTest, DuplicatedComplexTypeIsRejected) {
  std::mt19937 rng(MixSeed(7500 + GetParam()));
  Edtd schema = ReduceEdtd(RandomCountedSchema(&rng));
  std::string exported = *ExportXsd(MinimizeXsd(DfaXsdFromStEdtd(schema)));
  // Duplicate the first top-level complexType block verbatim (export
  // never nests complexType elements, so the close tag is unambiguous).
  size_t open = exported.find("<xs:complexType");
  ASSERT_NE(open, std::string::npos) << exported;
  const std::string close_tag = "</xs:complexType>";
  size_t close = exported.find(close_tag, open);
  ASSERT_NE(close, std::string::npos) << exported;
  std::string block = exported.substr(open, close + close_tag.size() - open);
  std::string doctored = exported;
  doctored.insert(close + close_tag.size(), "\n" + block);
  StatusOr<Edtd> imported = ImportXsd(doctored);
  ASSERT_FALSE(imported.ok()) << doctored;
  EXPECT_NE(imported.status().ToString().find("duplicate"),
            std::string::npos)
      << imported.status();
}

TEST_P(CountedRoundTripTest, HostileBoundsFailCleanlyUnderBudget) {
  std::mt19937 rng(MixSeed(7600 + GetParam()));
  const int bound = 500000 + static_cast<int>(rng() % 500000);
  const std::string source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="E" minOccurs="1" maxOccurs=")" +
                             std::to_string(bound) + R"("/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="E"><xs:sequence/></xs:complexType>
</xs:schema>
)";
  Budget budget;
  budget.set_max_states(10000);
  StatusOr<Edtd> schema = ImportXsd(source, &budget);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kResourceExhausted)
      << schema.status();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountedRoundTripTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
