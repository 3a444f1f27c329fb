// Tests for W3C-style XSD export/import round trips.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/base/budget.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/text_format.h"
#include "stap/schema/xsd_io.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

Edtd LibrarySchema() {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book*");
  builder.AddType("Book", "book", "Title Chapter+");
  builder.AddType("Title", "title", "%");
  builder.AddType("Chapter", "chapter", "%");
  builder.AddStart("Lib");
  return builder.Build();
}

TEST(XsdExportTest, EmitsSchemaSkeleton) {
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(LibrarySchema())));
  std::string exported = *ExportXsd(xsd);
  EXPECT_NE(exported.find("<xs:schema"), std::string::npos);
  EXPECT_NE(exported.find("xs:complexType"), std::string::npos);
  EXPECT_NE(exported.find("name=\"library\""), std::string::npos);
  EXPECT_NE(exported.find("maxOccurs=\"unbounded\""), std::string::npos);
}

TEST(XsdExportTest, RoundTripsThroughImport) {
  Edtd schema = ReduceEdtd(LibrarySchema());
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));
  StatusOr<Edtd> imported = ImportXsd(*ExportXsd(xsd));
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_TRUE(IsSingleType(ReduceEdtd(*imported)));
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *imported));
}

TEST(XsdImportTest, ParsesHandWrittenSubset) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order" type="OrderType"/>
  <xs:complexType name="OrderType">
    <xs:sequence>
      <xs:element name="customer" type="Empty"/>
      <xs:element name="item" type="ItemType" minOccurs="1"
                  maxOccurs="unbounded"/>
      <xs:element name="note" type="Empty" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="ItemType">
    <xs:choice>
      <xs:element name="sku" type="Empty"/>
      <xs:element name="gtin" type="Empty"/>
    </xs:choice>
  </xs:complexType>
  <xs:complexType name="Empty">
    <xs:sequence/>
  </xs:complexType>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_TRUE(schema.ok()) << schema.status();
  Edtd reduced = ReduceEdtd(*schema);
  EXPECT_TRUE(IsSingleType(reduced));
  Alphabet& s = reduced.sigma;
  int order = s.Find("order"), customer = s.Find("customer"),
      item = s.Find("item"), sku = s.Find("sku"), gtin = s.Find("gtin"),
      note = s.Find("note");
  Tree good(order, {Tree(customer), Tree(item, {Tree(sku)}),
                    Tree(item, {Tree(gtin)}), Tree(note)});
  EXPECT_TRUE(reduced.Accepts(good));
  Tree no_items(order, {Tree(customer), Tree(note)});
  EXPECT_FALSE(reduced.Accepts(no_items));
  Tree both(order, {Tree(customer),
                    Tree(item, {Tree(sku), Tree(gtin)})});
  EXPECT_FALSE(reduced.Accepts(both));
}

TEST(XsdImportTest, InlineAnonymousTypes) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="b" minOccurs="0">
          <xs:complexType>
            <xs:sequence/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_TRUE(schema.ok()) << schema.status();
  int a = schema->sigma.Find("a"), b = schema->sigma.Find("b");
  EXPECT_TRUE(schema->Accepts(Tree(a)));
  EXPECT_TRUE(schema->Accepts(Tree(a, {Tree(b)})));
  EXPECT_FALSE(schema->Accepts(Tree(a, {Tree(b), Tree(b)})));
}

TEST(XsdImportTest, NonSingleTypeSchemasImportAsEdtds) {
  // Two global elements with the same name would clash, but two types for
  // the same element name in *different* contexts are fine and produce a
  // genuine EDTD.
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r" type="RootType"/>
  <xs:complexType name="RootType">
    <xs:choice>
      <xs:element name="x" type="XDeep"/>
      <xs:element name="x" type="XFlat"/>
    </xs:choice>
  </xs:complexType>
  <xs:complexType name="XDeep">
    <xs:sequence>
      <xs:element name="x" type="XFlat"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="XFlat">
    <xs:sequence/>
  </xs:complexType>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_TRUE(schema.ok()) << schema.status();
  // EDC violated: two x-types in one content model.
  EXPECT_FALSE(IsSingleType(ReduceEdtd(*schema)));
  int r = schema->sigma.Find("r"), x = schema->sigma.Find("x");
  EXPECT_TRUE(schema->Accepts(Tree(r, {Tree(x)})));
  EXPECT_TRUE(schema->Accepts(Tree(r, {Tree(x, {Tree(x)})})));
  EXPECT_FALSE(schema->Accepts(Tree(r, {Tree(x, {Tree(x, {Tree(x)})})})));
}

TEST(XsdImportTest, RejectsUnsupportedConstructs) {
  EXPECT_FALSE(ImportXsd("<foo/>").ok());
  EXPECT_FALSE(ImportXsd(R"(
<xs:schema>
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:any/>
  </xs:complexType>
</xs:schema>)").ok());
  EXPECT_FALSE(ImportXsd(R"(
<xs:schema>
  <xs:element name="a" type="Missing"/>
</xs:schema>)").ok());
  EXPECT_FALSE(ImportXsd(R"(
<xs:schema>
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:all>
      <xs:element name="b" type="T"/>
    </xs:all>
  </xs:complexType>
</xs:schema>)").ok());
}

// Numeric minOccurs/maxOccurs import with counted semantics: the particle
// `item{2,4}` admits exactly 2..4 repetitions.
TEST(XsdImportTest, CountedOccursBounds) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="cart" type="CartType"/>
  <xs:complexType name="CartType">
    <xs:sequence>
      <xs:element name="item" type="Empty" minOccurs="2" maxOccurs="4"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Empty">
    <xs:sequence/>
  </xs:complexType>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_TRUE(schema.ok()) << schema.status();
  int cart = schema->sigma.Find("cart"), item = schema->sigma.Find("item");
  for (int k = 0; k <= 6; ++k) {
    std::vector<Tree> items(k, Tree(item));
    EXPECT_EQ(schema->Accepts(Tree(cart, items)), k >= 2 && k <= 4)
        << "k=" << k;
  }
}

// minOccurs with unbounded maxOccurs: `item{3,}`.
TEST(XsdImportTest, CountedMinWithUnboundedMax) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="cart" type="CartType"/>
  <xs:complexType name="CartType">
    <xs:sequence>
      <xs:element name="item" type="Empty" minOccurs="3"
                  maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Empty">
    <xs:sequence/>
  </xs:complexType>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_TRUE(schema.ok()) << schema.status();
  int cart = schema->sigma.Find("cart"), item = schema->sigma.Find("item");
  for (int k = 0; k <= 8; ++k) {
    std::vector<Tree> items(k, Tree(item));
    EXPECT_EQ(schema->Accepts(Tree(cart, items)), k >= 3) << "k=" << k;
  }
}

TEST(XsdImportTest, RejectsInvertedOccursBounds) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="T" minOccurs="5" maxOccurs="2"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().ToString().find("exceeds"), std::string::npos)
      << schema.status();
  // Out-of-range and non-numeric bounds are rejected, not truncated.
  EXPECT_FALSE(ImportXsd(R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="T" maxOccurs="9999999999"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>)").ok());
  EXPECT_FALSE(ImportXsd(R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="T" maxOccurs="two"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>)").ok());
}

// Counted bounds survive compile → minimize → export: the emitted XSD
// carries numeric minOccurs/maxOccurs (via content_source provenance,
// not an expanded particle), and re-importing it preserves the language.
TEST(XsdExportTest, CountedBoundsRoundTripThroughExport) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "A{2,5}");
  builder.AddType("A", "a", "%");
  builder.AddStart("R");
  Edtd schema = ReduceEdtd(builder.Build());
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));
  std::string exported = *ExportXsd(xsd);
  EXPECT_NE(exported.find("minOccurs=\"2\""), std::string::npos) << exported;
  EXPECT_NE(exported.find("maxOccurs=\"5\""), std::string::npos) << exported;
  StatusOr<Edtd> imported = ImportXsd(exported);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *imported));
  // Second generation: the re-imported schema exports with bounds intact.
  std::string again =
      *ExportXsd(MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(*imported))));
  EXPECT_NE(again.find("minOccurs=\"2\""), std::string::npos) << again;
  EXPECT_NE(again.find("maxOccurs=\"5\""), std::string::npos) << again;
}

// Satellite: namespace-prefix resolution. The XSD namespace may be bound
// to any prefix (xs:, xsd:, other) or be the default namespace; what
// matters is the binding, not the spelling.
TEST(XsdImportTest, NamespacePrefixVariants) {
  const char* xsd_prefixed = R"(
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="a" type="T"/>
  <xsd:complexType name="T">
    <xsd:sequence>
      <xsd:element name="b" type="E" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="E"><xsd:sequence/></xsd:complexType>
</xsd:schema>
)";
  const char* unprefixed = R"(
<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <element name="a" type="T"/>
  <complexType name="T">
    <sequence>
      <element name="b" type="E" minOccurs="0"/>
    </sequence>
  </complexType>
  <complexType name="E"><sequence/></complexType>
</schema>
)";
  StatusOr<Edtd> from_xsd = ImportXsd(xsd_prefixed);
  ASSERT_TRUE(from_xsd.ok()) << from_xsd.status();
  StatusOr<Edtd> from_default = ImportXsd(unprefixed);
  ASSERT_TRUE(from_default.ok()) << from_default.status();
  for (const Edtd* schema : {&*from_xsd, &*from_default}) {
    int a = schema->sigma.Find("a"), b = schema->sigma.Find("b");
    EXPECT_TRUE(schema->Accepts(Tree(a)));
    EXPECT_TRUE(schema->Accepts(Tree(a, {Tree(b)})));
    EXPECT_FALSE(schema->Accepts(Tree(a, {Tree(b), Tree(b)})));
  }
}

// A prefix explicitly bound to a non-XSD namespace is not an XSD schema,
// even if it is spelled "xs".
TEST(XsdImportTest, RejectsForeignRootNamespace) {
  StatusOr<Edtd> schema = ImportXsd(R"(
<xs:schema xmlns:xs="http://example.com/not-xsd">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
</xs:schema>
)");
  EXPECT_FALSE(schema.ok());
}

// Satellite: duplicate top-level complexType names are an error, not a
// silent last-wins overwrite.
TEST(XsdImportTest, RejectsDuplicateComplexType) {
  StatusOr<Edtd> schema = ImportXsd(R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T"><xs:sequence/></xs:complexType>
  <xs:complexType name="T">
    <xs:sequence><xs:element name="b" type="T"/></xs:sequence>
  </xs:complexType>
</xs:schema>
)");
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().ToString().find("duplicate"), std::string::npos)
      << schema.status();
}

// Satellite: maxOccurs="0" drops the particle (the W3C-sanctioned idiom
// for "absent"), but an explicit minOccurs > 0 contradicting it is an
// error.
TEST(XsdImportTest, MaxOccursZeroDropsParticle) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="E" maxOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="E"><xs:sequence/></xs:complexType>
</xs:schema>
)";
  StatusOr<Edtd> schema = ImportXsd(source);
  ASSERT_TRUE(schema.ok()) << schema.status();
  int a = schema->sigma.Find("a"), b = schema->sigma.Find("b");
  EXPECT_TRUE(schema->Accepts(Tree(a)));
  if (b != kNoSymbol) {
    EXPECT_FALSE(schema->Accepts(Tree(a, {Tree(b)})));
  }
  EXPECT_FALSE(ImportXsd(R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="E" minOccurs="1" maxOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="E"><xs:sequence/></xs:complexType>
</xs:schema>)").ok());
}

// Satellite: ExportXsd must key off automaton.initial(), not assume state
// 0 is the initial state.
TEST(XsdExportTest, HandlesNonZeroInitialState) {
  DfaXsd xsd;
  int a = xsd.sigma.Intern("a");
  xsd.start_symbols = {a};
  xsd.automaton = Dfa(2, 1);
  xsd.automaton.SetInitial(1);
  xsd.automaton.SetTransition(1, a, 0);
  xsd.state_label = {a, kNoSymbol};
  xsd.content.resize(2);
  xsd.content[0] = Dfa::EpsilonOnly(1);
  xsd.CheckWellFormed();

  std::string exported = *ExportXsd(xsd);
  StatusOr<Edtd> imported = ImportXsd(exported);
  ASSERT_TRUE(imported.ok()) << imported.status() << "\n" << exported;
  int ia = imported->sigma.Find("a");
  ASSERT_NE(ia, kNoSymbol) << exported;
  EXPECT_TRUE(imported->Accepts(Tree(ia)));
  EXPECT_FALSE(imported->Accepts(Tree(ia, {Tree(ia)})));
}

// Hostile counted bounds are caught by the state budget at expansion
// time instead of exhausting memory.
TEST(XsdImportTest, HostileCountsExhaustBudget) {
  const char* source = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:sequence>
      <xs:element name="b" type="E" minOccurs="1" maxOccurs="1000000"/>
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

TEST(XsdExportTest, UpaRepairApproximatesNonDeterministicContent) {
  // Content language (a|b)*a(a|b) is the classical non-one-unambiguous
  // language: without repair the export flags it; with repair it is
  // replaced by a deterministic upper approximation.
  SchemaBuilder builder;
  builder.AddType("R", "r", "(A | B)* A (A | B)");
  builder.AddType("A", "a", "%");
  builder.AddType("B", "b", "%");
  builder.AddStart("R");
  Edtd schema = ReduceEdtd(builder.Build());
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));

  std::string flagged = *ExportXsd(xsd);
  EXPECT_NE(flagged.find("stap-upa=\"unsatisfiable\""), std::string::npos);

  XsdExportOptions repair;
  repair.repair_upa = true;
  std::string repaired = *ExportXsd(xsd, repair);
  EXPECT_NE(repaired.find("stap-upa=\"approximated\""), std::string::npos);
  StatusOr<Edtd> imported = ImportXsd(repaired);
  ASSERT_TRUE(imported.ok()) << imported.status();
  // The repaired schema is a superset of the original...
  EXPECT_TRUE(*IncludedInSingleType(schema, *imported)) << repaired;
  // ...and strictly larger (the content language was not a chain).
  EXPECT_FALSE(*IncludedInSingleType(*imported, schema));
}

TEST(XsdImportTest, ImportedSchemasRoundTripThroughTextFormat) {
  // Imported type names carry '$'; the textual format must accept them.
  Edtd schema = ReduceEdtd(LibrarySchema());
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));
  StatusOr<Edtd> imported = ImportXsd(*ExportXsd(xsd));
  ASSERT_TRUE(imported.ok());
  std::string text = SchemaToText(ReduceEdtd(*imported));
  StatusOr<Edtd> reparsed = ParseSchema(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  EXPECT_TRUE(*SingleTypeEquivalent(*imported, *reparsed));
}

TEST(XmlDomTest, AttributesParseAndSerialize) {
  StatusOr<XmlElement> element = ParseXmlDocument(
      "<a x=\"1\" y='two'><b z=\"3\"/></a>");
  ASSERT_TRUE(element.ok()) << element.status();
  ASSERT_EQ(element->attributes.size(), 2u);
  EXPECT_EQ(*element->FindAttribute("x"), "1");
  EXPECT_EQ(*element->FindAttribute("y"), "two");
  EXPECT_EQ(element->FindAttribute("missing"), nullptr);
  EXPECT_EQ(*element->children[0].FindAttribute("z"), "3");
  StatusOr<XmlElement> reparsed =
      ParseXmlDocument(XmlElementToString(*element));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->attributes.size(), 2u);
}

// Random round trips: export the minimized schema, import it, compare
// languages.
class XsdRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(XsdRoundTripTest, ExportImportPreservesLanguage) {
  std::mt19937 rng(GetParam() * 40927 + 19);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 5;
  Edtd schema = RandomStEdtd(&rng, params);
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));
  StatusOr<Edtd> imported = ImportXsd(*ExportXsd(xsd));
  ASSERT_TRUE(imported.ok()) << imported.status() << "\n" << *ExportXsd(xsd);
  EXPECT_TRUE(*SingleTypeEquivalent(schema, *imported)) << *ExportXsd(xsd);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XsdRoundTripTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace stap
