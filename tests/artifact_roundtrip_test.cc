// Round-trip tests for the compiled-schema artifact format.
//
// For 500+ seeded random automata, content models, and schemas, asserts
// that Deserialize(Serialize(x)) reproduces x — structurally (the format
// preserves state numbering bit-for-bit) and semantically (language
// equivalence checked through the antichain inclusion engine, so a
// numbering-preserving-but-language-breaking encoder bug cannot hide
// behind the structural check agreeing with itself).
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "oracles/inclusion.h"
#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/minimize.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// --- structural comparators ------------------------------------------
// Dfa and Alphabet have operator==; Nfa, Edtd, and DfaXsd are compared
// field by field so a failure names the divergent component.

void ExpectNfaEqual(const Nfa& a, const Nfa& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_symbols(), b.num_symbols());
  EXPECT_EQ(a.initial(), b.initial());
  EXPECT_EQ(a.FinalStates(), b.FinalStates());
  for (int q = 0; q < a.num_states(); ++q) {
    for (int s = 0; s < a.num_symbols(); ++s) {
      EXPECT_EQ(a.Next(q, s), b.Next(q, s))
          << "transition row (" << q << ", " << s << ")";
    }
  }
}

void ExpectEdtdEqual(const Edtd& a, const Edtd& b) {
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.types, b.types);
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.start_types, b.start_types);
  ASSERT_EQ(a.content.size(), b.content.size());
  for (size_t i = 0; i < a.content.size(); ++i) {
    EXPECT_EQ(a.content[i], b.content[i]) << "content model " << i;
  }
}

void ExpectXsdEqual(const DfaXsd& a, const DfaXsd& b) {
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.start_symbols, b.start_symbols);
  EXPECT_EQ(a.automaton, b.automaton);
  EXPECT_EQ(a.state_label, b.state_label);
  ASSERT_EQ(a.content.size(), b.content.size());
  for (size_t i = 0; i < a.content.size(); ++i) {
    EXPECT_EQ(a.content[i], b.content[i]) << "content model " << i;
  }
}

// Language equivalence via the antichain engine, both directions.
void ExpectSameLanguage(const Nfa& a, const Nfa& b) {
  EXPECT_TRUE(*NfaIncludedInNfa(a, b));
  EXPECT_TRUE(*NfaIncludedInNfa(b, a));
}

// --- random NFAs ------------------------------------------------------

TEST(ArtifactRoundTrip, RandomNfas) {
  for (int i = 0; i < 150; ++i) {
    std::mt19937 rng(MixSeed(1000 + i));
    const int num_states = 1 + static_cast<int>(rng() % 12);
    const int num_symbols = 1 + static_cast<int>(rng() % 5);
    const int fanout = 1 + static_cast<int>(rng() % 3);
    Nfa nfa = RandomNfa(&rng, num_states, num_symbols, fanout);

    StatusOr<Nfa> back = DeserializeNfa(SerializeNfa(nfa));
    ASSERT_TRUE(back.ok()) << back.status().message() << " (instance " << i
                           << ")";
    ExpectNfaEqual(nfa, *back);
    ExpectSameLanguage(nfa, *back);
  }
}

// --- random (minimized) DFAs -----------------------------------------

TEST(ArtifactRoundTrip, RandomMinimizedDfas) {
  for (int i = 0; i < 150; ++i) {
    std::mt19937 rng(MixSeed(2000 + i));
    const int num_states = 1 + static_cast<int>(rng() % 10);
    const int num_symbols = 1 + static_cast<int>(rng() % 4);
    Nfa nfa = RandomNfa(&rng, num_states, num_symbols);
    Dfa dfa = *Minimize(*Determinize(nfa));

    StatusOr<Dfa> back = DeserializeDfa(SerializeDfa(dfa));
    ASSERT_TRUE(back.ok()) << back.status().message() << " (instance " << i
                           << ")";
    EXPECT_EQ(dfa, *back);
    EXPECT_TRUE(DfaEquivalent(dfa, *back));
    ExpectSameLanguage(dfa.ToNfa(), back->ToNfa());
  }
}

// Partial (trimmed, non-complete) DFAs exercise the kNoState encoding.
TEST(ArtifactRoundTrip, PartialDfas) {
  for (int i = 0; i < 40; ++i) {
    std::mt19937 rng(MixSeed(2500 + i));
    Nfa nfa = RandomNfa(&rng, 8, 3, 1);  // sparse: runs die often
    Dfa dfa = Determinize(nfa)->Trimmed();

    StatusOr<Dfa> back = DeserializeDfa(SerializeDfa(dfa));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(dfa, *back);
  }
}

// --- regex-derived content models ------------------------------------

TEST(ArtifactRoundTrip, RegexDerivedContentModels) {
  const char* kRegexes[] = {
      "a",          "a b",         "a | b",      "a*",
      "a+",         "a?",          "%",          "~",
      "(a b)* c",   "a (b | c)+",  "(a | %) b*", "a b c d",
      "(a | b)*",   "a* b* c*",    "(a b | c)?", "a (a (a | b))*",
  };
  int instance = 0;
  for (const char* source : kRegexes) {
    Alphabet alphabet;
    alphabet.Intern("a");
    alphabet.Intern("b");
    alphabet.Intern("c");
    alphabet.Intern("d");
    StatusOr<RegexPtr> regex = ParseRegex(source, &alphabet, false);
    ASSERT_TRUE(regex.ok()) << source;
    Dfa dfa = *RegexToDfa(**regex, alphabet.size());

    StatusOr<Dfa> back = DeserializeDfa(SerializeDfa(dfa));
    ASSERT_TRUE(back.ok()) << source << ": " << back.status().message();
    EXPECT_EQ(dfa, *back) << source;
    EXPECT_TRUE(DfaEquivalent(dfa, *back)) << source;
    ++instance;
  }
  EXPECT_EQ(instance, 16);
}

// --- alphabets --------------------------------------------------------

TEST(ArtifactRoundTrip, Alphabets) {
  // Empty.
  {
    StatusOr<Alphabet> back = DeserializeAlphabet(SerializeAlphabet(Alphabet()));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size(), 0);
  }
  // Names with every non-NUL structure the format must preserve.
  {
    Alphabet alphabet;
    alphabet.Intern("a");
    alphabet.Intern("name with spaces");
    alphabet.Intern("unicode-\xc3\xa9\xc3\xa8");
    alphabet.Intern(std::string(kMaxSymbolNameBytes, 'x'));  // at the cap
    StatusOr<Alphabet> back = DeserializeAlphabet(SerializeAlphabet(alphabet));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(alphabet, *back);
  }
  // Large alphabet (~5000 symbols).
  {
    Alphabet alphabet;
    for (int i = 0; i < 5000; ++i) {
      alphabet.Intern("sym" + std::to_string(i));
    }
    StatusOr<Alphabet> back = DeserializeAlphabet(SerializeAlphabet(alphabet));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(alphabet, *back);
  }
}

// --- edge-case automata ----------------------------------------------

TEST(ArtifactRoundTrip, EdgeCaseAutomata) {
  // The zero-state placeholder.
  {
    StatusOr<Dfa> back = DeserializeDfa(SerializeDfa(Dfa()));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(Dfa(), *back);
  }
  // Canonical one-state languages at several alphabet widths.
  for (int k : {0, 1, 3, 17}) {
    for (const Dfa& dfa :
         {Dfa::EmptyLanguage(k), Dfa::EpsilonOnly(k), Dfa::AllWords(k)}) {
      StatusOr<Dfa> back = DeserializeDfa(SerializeDfa(dfa));
      ASSERT_TRUE(back.ok()) << back.status().message() << " (k=" << k << ")";
      EXPECT_EQ(dfa, *back);
    }
  }
  // Single-state NFAs: final and non-final, with and without a self loop.
  for (int variant = 0; variant < 4; ++variant) {
    Nfa nfa(1, 2);
    nfa.AddInitial(0);
    if (variant & 1) nfa.SetFinal(0);
    if (variant & 2) nfa.AddTransition(0, 1, 0);
    StatusOr<Nfa> back = DeserializeNfa(SerializeNfa(nfa));
    ASSERT_TRUE(back.ok()) << back.status().message();
    ExpectNfaEqual(nfa, *back);
  }
  // Empty NFA (no states, no initial states).
  {
    Nfa nfa(0, 3);
    StatusOr<Nfa> back = DeserializeNfa(SerializeNfa(nfa));
    ASSERT_TRUE(back.ok()) << back.status().message();
    ExpectNfaEqual(nfa, *back);
  }
  // A DFA over a large alphabet: one state, a few scattered transitions.
  {
    Dfa dfa(2, 5000);
    dfa.SetTransition(0, 0, 1);
    dfa.SetTransition(0, 4999, 0);
    dfa.SetTransition(1, 2500, 1);
    dfa.SetFinal(1);
    StatusOr<Dfa> back = DeserializeDfa(SerializeDfa(dfa));
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(dfa, *back);
  }
}

// --- random EDTDs and single-type EDTDs ------------------------------

TEST(ArtifactRoundTrip, RandomEdtds) {
  for (int i = 0; i < 50; ++i) {
    std::mt19937 rng(MixSeed(3000 + i));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 5);
    Edtd edtd = RandomEdtd(&rng, params);

    StatusOr<Edtd> back = DeserializeEdtd(SerializeEdtd(edtd));
    ASSERT_TRUE(back.ok()) << back.status().message() << " (instance " << i
                           << ")";
    ExpectEdtdEqual(edtd, *back);
  }
}

TEST(ArtifactRoundTrip, RandomStEdtdsAndXsds) {
  for (int i = 0; i < 50; ++i) {
    std::mt19937 rng(MixSeed(4000 + i));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 5);
    Edtd edtd = RandomStEdtd(&rng, params);
    ASSERT_TRUE(IsSingleType(edtd));

    StatusOr<Edtd> back = DeserializeEdtd(SerializeEdtd(edtd));
    ASSERT_TRUE(back.ok()) << back.status().message();
    ExpectEdtdEqual(edtd, *back);

    DfaXsd xsd = DfaXsdFromStEdtd(edtd);
    StatusOr<DfaXsd> xsd_back = DeserializeDfaXsd(SerializeDfaXsd(xsd));
    ASSERT_TRUE(xsd_back.ok()) << xsd_back.status().message();
    ExpectXsdEqual(xsd, *xsd_back);
  }
}

// --- full artifacts ---------------------------------------------------

void ExpectCompiledSchemaEqual(const CompiledSchema& a,
                               const CompiledSchema& b) {
  ExpectEdtdEqual(a.edtd, b.edtd);
  EXPECT_EQ(a.single_type, b.single_type);
  if (a.single_type) ExpectXsdEqual(a.xsd, b.xsd);
  EXPECT_EQ(a.source_hash, b.source_hash);
  EXPECT_EQ(a.content_hashes, b.content_hashes);
}

TEST(ArtifactRoundTrip, RandomCompiledSchemas) {
  for (int i = 0; i < 50; ++i) {
    std::mt19937 rng(MixSeed(5000 + i));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 4);
    // Alternate single-type and general schemas so both artifact shapes
    // (with and without the DfaXsd section) see coverage.
    Edtd edtd = (i % 2 == 0) ? RandomStEdtd(&rng, params)
                             : RandomEdtd(&rng, params);
    CompiledSchema schema = MakeCompiledSchema(edtd, /*source_hash=*/rng());

    std::string bytes = SerializeArtifact(schema);
    ASSERT_TRUE(LooksLikeArtifact(bytes));
    StatusOr<CompiledSchema> back = DeserializeArtifact(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message() << " (instance " << i
                           << ")";
    ExpectCompiledSchemaEqual(schema, *back);
  }
}

// Serialization is a pure function of the schema: compiling the same
// source twice yields byte-identical artifacts (the property the batch
// determinism check and cache correctness both lean on).
TEST(ArtifactRoundTrip, SerializationIsDeterministic) {
  for (int i = 0; i < 20; ++i) {
    std::mt19937 rng(MixSeed(5500 + i));
    RandomSchemaParams params;
    Edtd edtd = RandomStEdtd(&rng, params);
    CompiledSchema schema = MakeCompiledSchema(edtd, 42);
    EXPECT_EQ(SerializeArtifact(schema), SerializeArtifact(schema));
  }
}

// --- worked examples --------------------------------------------------

constexpr char kLibrarySchema[] = R"(
# The paper's running example: a book store with optional sections.
start Lib
type Lib     : library -> Book*
type Book    : book    -> Title Chapter+
type Title   : title   -> %
type Chapter : chapter -> (Section | %)
type Section : section -> %
)";

// A non-single-type EDTD: two Book types with the same label but
// different content, discriminated by position.
constexpr char kDealerSchema[] = R"(
start Dealer
type Dealer  : dealer  -> UsedBook* NewBook*
type UsedBook: book    -> Title Year
type NewBook : book    -> Title
type Title   : title   -> %
type Year    : year    -> %
)";

TEST(ArtifactRoundTrip, WorkedExampleSchemas) {
  for (const char* source : {kLibrarySchema, kDealerSchema}) {
    StatusOr<CompiledSchema> schema = CompileSchema(source, nullptr);
    ASSERT_TRUE(schema.ok()) << schema.status().message();

    std::string bytes = SerializeArtifact(*schema);
    StatusOr<CompiledSchema> back = DeserializeArtifact(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message();
    ExpectCompiledSchemaEqual(*schema, *back);

    // The textual rendering of the schema survives the trip too.
    EXPECT_EQ(SchemaToText(schema->edtd), SchemaToText(back->edtd));
  }
}

TEST(ArtifactRoundTrip, WorkedExampleValidatesThroughArtifact) {
  StatusOr<CompiledSchema> schema = CompileSchema(kLibrarySchema, nullptr);
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(schema->single_type);
  StatusOr<CompiledSchema> back =
      DeserializeArtifact(SerializeArtifact(*schema));
  ASSERT_TRUE(back.ok());

  // Sample accepted trees from the original; the round-tripped validator
  // must agree on every one of them, and on a rejected mutation.
  std::mt19937 rng(MixSeed(6000));
  for (int i = 0; i < 25; ++i) {
    std::optional<Tree> tree = SampleTree(schema->xsd, &rng);
    ASSERT_TRUE(tree.has_value());
    EXPECT_TRUE(back->xsd.Accepts(*tree));
    EXPECT_TRUE(back->edtd.Accepts(*tree));
  }
  const Alphabet& sigma = schema->edtd.sigma;
  Tree bad(sigma.Find("library"),
           {Tree(sigma.Find("book"),
                 {Tree(sigma.Find("title"))})});  // missing chapter
  EXPECT_FALSE(schema->xsd.Accepts(bad));
  EXPECT_FALSE(back->xsd.Accepts(bad));
}

// Provenance hashes commit to the content models: the recorded hash of
// each deserialized content DFA matches a fresh recomputation.
TEST(ArtifactRoundTrip, ProvenanceHashesRecomputable) {
  std::mt19937 rng(MixSeed(6100));
  Edtd edtd = RandomStEdtd(&rng, RandomSchemaParams());
  CompiledSchema schema = MakeCompiledSchema(edtd);
  StatusOr<CompiledSchema> back =
      DeserializeArtifact(SerializeArtifact(schema));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->content_hashes.size(), back->edtd.content.size());
  for (size_t i = 0; i < back->edtd.content.size(); ++i) {
    EXPECT_EQ(back->content_hashes[i], DfaStructuralHash(back->edtd.content[i]));
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
