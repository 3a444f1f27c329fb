// Compiled-schema artifacts: a versioned binary serialization of the
// compilation pipeline's outputs, so the serving path loads minimal
// content-model DFAs instead of re-running Glushkov → determinize →
// minimize per invocation.
//
// Layout (all integers little-endian):
//
//   magic[8]  "STAPCSA\n"
//   u32       format version (kArtifactVersion; newer versions rejected)
//   u64       checksum — chained splitmix64 over every payload byte
//   payload:
//     u64     source hash (hash of the schema text the artifact came from)
//     Edtd    the reduced schema (alphabets, type map, content DFAs)
//     u8      single-type flag
//     DfaXsd  (present iff single-type) the one-pass validator
//     u64[n]  per-type content-model provenance hashes
//
// Deserialization is hostile-input safe: every count is validated against
// the bytes actually remaining (no attacker-sized allocations), symbol
// names are capped in length and may not contain NUL bytes, all ids are
// range-checked, and the checksum rejects bit corruption before any
// structure is built. Every failure is a kInvalidArgument Status — never
// a crash.
#ifndef STAP_IO_ARTIFACT_H_
#define STAP_IO_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

class CompileCache;

inline constexpr char kArtifactMagic[8] = {'S', 'T', 'A', 'P',
                                           'C', 'S', 'A', '\n'};
inline constexpr uint32_t kArtifactVersion = 1;
// magic + version + checksum.
inline constexpr size_t kArtifactHeaderSize = 8 + 4 + 8;
// Hard cap on a serialized symbol name; longer names (and names with
// embedded NUL bytes) are rejected at deserialize time so a hostile
// artifact cannot inflate Alphabet memory.
inline constexpr size_t kMaxSymbolNameBytes = 4096;

// The unit the cache and the batch-validation driver share: everything
// `stap validate` needs, compiled once.
struct CompiledSchema {
  Edtd edtd;          // reduced (Proviso 2.3)
  bool single_type = false;
  DfaXsd xsd;         // meaningful iff single_type
  uint64_t source_hash = 0;             // hash of the schema source text
  std::vector<uint64_t> content_hashes;  // per type: DfaStructuralHash
};

// Chained splitmix64 over raw bytes; the artifact checksum and the
// source hash both use it (exposed so tests can re-seal patched payloads).
uint64_t HashBytes(std::string_view bytes);

// Structural hash of a DFA (states, symbols, initial, delta, finals) —
// the per-content-model provenance fingerprint stored in artifacts.
uint64_t DfaStructuralHash(const Dfa& dfa);

// --- standalone section serializers (no header/checksum) -------------
// Each Deserialize* requires the buffer to be fully consumed and returns
// kInvalidArgument on any malformed input.

std::string SerializeAlphabet(const Alphabet& alphabet);
StatusOr<Alphabet> DeserializeAlphabet(std::string_view bytes);

std::string SerializeDfa(const Dfa& dfa);
StatusOr<Dfa> DeserializeDfa(std::string_view bytes);

std::string SerializeNfa(const Nfa& nfa);
StatusOr<Nfa> DeserializeNfa(std::string_view bytes);

std::string SerializeEdtd(const Edtd& edtd);
StatusOr<Edtd> DeserializeEdtd(std::string_view bytes);

std::string SerializeDfaXsd(const DfaXsd& xsd);
StatusOr<DfaXsd> DeserializeDfaXsd(std::string_view bytes);

// --- the artifact itself ---------------------------------------------

std::string SerializeArtifact(const CompiledSchema& schema);
StatusOr<CompiledSchema> DeserializeArtifact(std::string_view bytes);

// True if `bytes` starts with the artifact magic (used by the CLI to
// accept either a textual schema or a compiled artifact).
bool LooksLikeArtifact(std::string_view bytes);

// --- compilation entry points ----------------------------------------

// Reduces `edtd` and derives the single-type validator and provenance
// hashes. `source_hash` identifies the source the schema came from.
CompiledSchema MakeCompiledSchema(const Edtd& edtd, uint64_t source_hash = 0);

// True if the text reads as an XML document (first non-whitespace byte is
// '<'), i.e. a schema source that should go through the XSD importer
// rather than the textual-format parser.
bool LooksLikeXml(std::string_view text);

// Parses a schema source — the textual format, or a W3C XSD document
// (auto-detected via LooksLikeXml) — and compiles it into a
// CompiledSchema, memoizing textual content-model compilation through
// `cache` (null = no cache). Content-model compilation (counted-repetition
// expansion, determinize, minimize) charges `budget` (null = unlimited).
StatusOr<CompiledSchema> CompileSchema(std::string_view schema_text,
                                       CompileCache* cache,
                                       Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_IO_ARTIFACT_H_
