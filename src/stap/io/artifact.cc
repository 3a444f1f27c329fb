#include "stap/io/artifact.h"

#include <cstring>
#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/reduce.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/xsd_io.h"

namespace stap {

namespace {

// Caps on declared dimensions, over and above the bytes-remaining
// guards: no legitimate schema approaches them, and they keep every
// derived product (states × symbols) inside int64 arithmetic.
constexpr uint32_t kMaxDimension = 1u << 28;

// --- primitive writer -------------------------------------------------

class Writer {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      bytes_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  }

  void PutU64(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      bytes_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  }

  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    bytes_.append(s);
  }

  void PutIntVector(const std::vector<int>& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (int x : v) PutI32(x);
  }

  std::string Take() { return std::move(bytes_); }
  void Append(std::string_view s) { bytes_.append(s); }

 private:
  std::string bytes_;
};

// --- primitive bounds-checked reader ----------------------------------

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }

  Status Truncated(size_t need) const {
    return InvalidArgumentError(
        "artifact truncated at byte " + std::to_string(offset_) + ": need " +
        std::to_string(need) + " bytes, have " + std::to_string(remaining()));
  }

  Status ReadU8(uint8_t* out) {
    if (remaining() < 1) return Truncated(1);
    *out = static_cast<uint8_t>(bytes_[offset_++]);
    return Status();
  }

  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Truncated(4);
    uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[offset_ + b]))
           << (8 * b);
    }
    offset_ += 4;
    *out = v;
    return Status();
  }

  Status ReadU64(uint64_t* out) {
    if (remaining() < 8) return Truncated(8);
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[offset_ + b]))
           << (8 * b);
    }
    offset_ += 8;
    *out = v;
    return Status();
  }

  Status ReadI32(int32_t* out) {
    uint32_t v = 0;
    STAP_RETURN_IF_ERROR(ReadU32(&v));
    *out = static_cast<int32_t>(v);
    return Status();
  }

  // Reads an element count that is followed by at least
  // `min_bytes_per_element` bytes per element — the over-allocation
  // guard: a hostile count can never exceed what the buffer could hold.
  Status ReadCount(uint32_t* out, size_t min_bytes_per_element) {
    const size_t at = offset_;
    uint32_t n = 0;
    STAP_RETURN_IF_ERROR(ReadU32(&n));
    if (min_bytes_per_element > 0 &&
        static_cast<uint64_t>(n) >
            static_cast<uint64_t>(remaining()) / min_bytes_per_element) {
      return InvalidArgumentError(
          "artifact count " + std::to_string(n) + " at byte " +
          std::to_string(at) + " exceeds the " + std::to_string(remaining()) +
          " bytes remaining");
    }
    *out = n;
    return Status();
  }

  // Reads a length-prefixed string, enforcing the symbol-name hardening:
  // a byte-length cap and no embedded NUL bytes.
  Status ReadString(std::string* out, size_t max_bytes) {
    const size_t at = offset_;
    uint32_t len = 0;
    STAP_RETURN_IF_ERROR(ReadU32(&len));
    if (len > max_bytes) {
      return InvalidArgumentError("artifact string at byte " +
                                  std::to_string(at) + " has length " +
                                  std::to_string(len) + " > cap " +
                                  std::to_string(max_bytes));
    }
    if (remaining() < len) return Truncated(len);
    std::string_view raw = bytes_.substr(offset_, len);
    if (raw.find('\0') != std::string_view::npos) {
      return InvalidArgumentError("artifact string at byte " +
                                  std::to_string(at) +
                                  " contains an embedded NUL byte");
    }
    offset_ += len;
    out->assign(raw);
    return Status();
  }

  Status ExpectDone() const {
    if (remaining() == 0) return Status();
    return InvalidArgumentError(std::to_string(remaining()) +
                                " trailing bytes after artifact payload");
  }

 private:
  std::string_view bytes_;
  size_t offset_ = 0;
};

Status BadValue(const char* what, int64_t value, const Reader& reader) {
  return InvalidArgumentError("artifact: invalid " + std::string(what) + " " +
                              std::to_string(value) + " before byte " +
                              std::to_string(reader.offset()));
}

// Reads a dimension (state or symbol count).
Status ReadDimension(Reader* reader, const char* what, int* out) {
  uint32_t v = 0;
  STAP_RETURN_IF_ERROR(reader->ReadU32(&v));
  if (v > kMaxDimension) return BadValue(what, v, *reader);
  *out = static_cast<int>(v);
  return Status();
}

// Reads a sorted, duplicate-free id set with every element in
// [0, bound).
Status ReadSortedIdSet(Reader* reader, const char* what, int bound,
                       std::vector<int>* out) {
  uint32_t count = 0;
  STAP_RETURN_IF_ERROR(reader->ReadCount(&count, 4));
  out->clear();
  out->reserve(count);
  int previous = -1;
  for (uint32_t i = 0; i < count; ++i) {
    int32_t v = 0;
    STAP_RETURN_IF_ERROR(reader->ReadI32(&v));
    if (v <= previous || v >= bound) return BadValue(what, v, *reader);
    out->push_back(v);
    previous = v;
  }
  return Status();
}

// Reads a per-state finality vector (one 0/1 byte per state).
Status ReadFinalBytes(Reader* reader, int num_states,
                      std::vector<bool>* out) {
  if (reader->remaining() < static_cast<size_t>(num_states)) {
    return reader->Truncated(num_states);
  }
  out->assign(num_states, false);
  for (int q = 0; q < num_states; ++q) {
    uint8_t b = 0;
    STAP_RETURN_IF_ERROR(reader->ReadU8(&b));
    if (b > 1) return BadValue("final flag", b, *reader);
    (*out)[q] = b == 1;
  }
  return Status();
}

// --- Alphabet ---------------------------------------------------------

void AppendAlphabet(Writer* w, const Alphabet& alphabet) {
  w->PutU32(static_cast<uint32_t>(alphabet.size()));
  for (const std::string& name : alphabet.names()) w->PutString(name);
}

Status ReadAlphabet(Reader* reader, Alphabet* out) {
  uint32_t count = 0;
  STAP_RETURN_IF_ERROR(reader->ReadCount(&count, 4));
  Alphabet alphabet;
  std::string name;
  for (uint32_t i = 0; i < count; ++i) {
    STAP_RETURN_IF_ERROR(reader->ReadString(&name, kMaxSymbolNameBytes));
    if (alphabet.Intern(name) != static_cast<int>(i)) {
      return InvalidArgumentError("artifact alphabet: duplicate symbol '" +
                                  name + "'");
    }
  }
  *out = std::move(alphabet);
  return Status();
}

// --- Dfa --------------------------------------------------------------

void AppendDfa(Writer* w, const Dfa& dfa) {
  w->PutU32(static_cast<uint32_t>(dfa.num_states()));
  w->PutU32(static_cast<uint32_t>(dfa.num_symbols()));
  w->PutI32(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    for (int a = 0; a < dfa.num_symbols(); ++a) w->PutI32(dfa.Next(q, a));
  }
  for (int q = 0; q < dfa.num_states(); ++q) {
    w->PutU8(dfa.IsFinal(q) ? 1 : 0);
  }
}

Status ReadDfa(Reader* reader, Dfa* out) {
  int num_states = 0;
  int num_symbols = 0;
  STAP_RETURN_IF_ERROR(ReadDimension(reader, "DFA state count", &num_states));
  STAP_RETURN_IF_ERROR(
      ReadDimension(reader, "DFA symbol count", &num_symbols));
  int32_t initial = 0;
  STAP_RETURN_IF_ERROR(reader->ReadI32(&initial));
  const bool initial_ok = num_states == 0
                              ? initial == 0
                              : (initial >= 0 && initial < num_states);
  if (!initial_ok) return BadValue("DFA initial state", initial, *reader);
  // Each delta entry is 4 serialized bytes, so this guard bounds the
  // allocation below by the buffer size.
  const uint64_t cells =
      static_cast<uint64_t>(num_states) * static_cast<uint64_t>(num_symbols);
  if (cells > reader->remaining() / 4) {
    return InvalidArgumentError(
        "artifact DFA " + std::to_string(num_states) + "x" +
        std::to_string(num_symbols) + " transition table exceeds the " +
        std::to_string(reader->remaining()) + " bytes remaining");
  }
  Dfa dfa(num_states, num_symbols);
  if (num_states > 0) dfa.SetInitial(initial);
  for (int q = 0; q < num_states; ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      int32_t to = 0;
      STAP_RETURN_IF_ERROR(reader->ReadI32(&to));
      if (to != kNoState && (to < 0 || to >= num_states)) {
        return BadValue("DFA transition target", to, *reader);
      }
      if (to != kNoState) dfa.SetTransition(q, a, to);
    }
  }
  std::vector<bool> finals;
  STAP_RETURN_IF_ERROR(ReadFinalBytes(reader, num_states, &finals));
  for (int q = 0; q < num_states; ++q) {
    if (finals[q]) dfa.SetFinal(q);
  }
  *out = std::move(dfa);
  return Status();
}

// --- Nfa --------------------------------------------------------------

void AppendNfa(Writer* w, const Nfa& nfa) {
  w->PutU32(static_cast<uint32_t>(nfa.num_states()));
  w->PutU32(static_cast<uint32_t>(nfa.num_symbols()));
  w->PutIntVector(nfa.initial());
  for (int q = 0; q < nfa.num_states(); ++q) {
    w->PutU8(nfa.IsFinal(q) ? 1 : 0);
  }
  for (int q = 0; q < nfa.num_states(); ++q) {
    for (int a = 0; a < nfa.num_symbols(); ++a) {
      w->PutIntVector(nfa.Next(q, a));
    }
  }
}

Status ReadNfa(Reader* reader, Nfa* out) {
  int num_states = 0;
  int num_symbols = 0;
  STAP_RETURN_IF_ERROR(ReadDimension(reader, "NFA state count", &num_states));
  STAP_RETURN_IF_ERROR(
      ReadDimension(reader, "NFA symbol count", &num_symbols));
  // Every transition row costs at least its 4-byte count in the stream;
  // bounding rows by remaining/4 bounds the row-vector allocation.
  const uint64_t rows =
      static_cast<uint64_t>(num_states) * static_cast<uint64_t>(num_symbols);
  if (rows > reader->remaining() / 4) {
    return InvalidArgumentError(
        "artifact NFA " + std::to_string(num_states) + "x" +
        std::to_string(num_symbols) + " transition rows exceed the " +
        std::to_string(reader->remaining()) + " bytes remaining");
  }
  Nfa nfa(num_states, num_symbols);
  std::vector<int> initial;
  STAP_RETURN_IF_ERROR(
      ReadSortedIdSet(reader, "NFA initial state", num_states, &initial));
  for (int q : initial) nfa.AddInitial(q);
  std::vector<bool> finals;
  STAP_RETURN_IF_ERROR(ReadFinalBytes(reader, num_states, &finals));
  for (int q = 0; q < num_states; ++q) {
    if (finals[q]) nfa.SetFinal(q);
  }
  std::vector<int> row;
  for (int q = 0; q < num_states; ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      STAP_RETURN_IF_ERROR(
          ReadSortedIdSet(reader, "NFA transition target", num_states, &row));
      if (!row.empty()) nfa.SetTransitionRow(q, a, row);
      row.clear();
    }
  }
  *out = std::move(nfa);
  return Status();
}

// --- Edtd -------------------------------------------------------------

void AppendEdtd(Writer* w, const Edtd& edtd) {
  AppendAlphabet(w, edtd.sigma);
  AppendAlphabet(w, edtd.types);
  w->PutIntVector(edtd.mu);
  w->PutIntVector(edtd.start_types);
  w->PutU32(static_cast<uint32_t>(edtd.content.size()));
  for (const Dfa& dfa : edtd.content) AppendDfa(w, dfa);
}

Status ReadEdtd(Reader* reader, Edtd* out) {
  Edtd edtd;
  STAP_RETURN_IF_ERROR(ReadAlphabet(reader, &edtd.sigma));
  STAP_RETURN_IF_ERROR(ReadAlphabet(reader, &edtd.types));
  uint32_t mu_count = 0;
  STAP_RETURN_IF_ERROR(reader->ReadCount(&mu_count, 4));
  if (static_cast<int>(mu_count) != edtd.types.size()) {
    return InvalidArgumentError(
        "artifact EDTD: type map covers " + std::to_string(mu_count) +
        " types but the type alphabet has " +
        std::to_string(edtd.types.size()));
  }
  for (uint32_t i = 0; i < mu_count; ++i) {
    int32_t label = 0;
    STAP_RETURN_IF_ERROR(reader->ReadI32(&label));
    if (label < 0 || label >= edtd.sigma.size()) {
      return BadValue("EDTD type label", label, *reader);
    }
    edtd.mu.push_back(label);
  }
  STAP_RETURN_IF_ERROR(ReadSortedIdSet(reader, "EDTD start type",
                                       edtd.types.size(), &edtd.start_types));
  uint32_t content_count = 0;
  STAP_RETURN_IF_ERROR(reader->ReadCount(&content_count, 12));
  if (static_cast<int>(content_count) != edtd.types.size()) {
    return InvalidArgumentError(
        "artifact EDTD: " + std::to_string(content_count) +
        " content models for " + std::to_string(edtd.types.size()) + " types");
  }
  for (uint32_t tau = 0; tau < content_count; ++tau) {
    Dfa dfa;
    STAP_RETURN_IF_ERROR(ReadDfa(reader, &dfa));
    if (dfa.num_symbols() != edtd.types.size()) {
      return InvalidArgumentError(
          "artifact EDTD: content model of type " + std::to_string(tau) +
          " ranges over " + std::to_string(dfa.num_symbols()) +
          " symbols, expected " + std::to_string(edtd.types.size()));
    }
    edtd.content.push_back(std::move(dfa));
  }
  *out = std::move(edtd);
  return Status();
}

// --- DfaXsd -----------------------------------------------------------

void AppendDfaXsd(Writer* w, const DfaXsd& xsd) {
  AppendAlphabet(w, xsd.sigma);
  w->PutIntVector(xsd.start_symbols);
  AppendDfa(w, xsd.automaton);
  w->PutIntVector(xsd.state_label);
  w->PutU32(static_cast<uint32_t>(xsd.content.size()));
  for (const Dfa& dfa : xsd.content) AppendDfa(w, dfa);
}

// Status-returning mirror of DfaXsd::CheckWellFormed (which aborts, and
// so must never see unvalidated bytes).
Status ValidateDfaXsd(const DfaXsd& xsd) {
  const int num_states = xsd.automaton.num_states();
  const int init = xsd.automaton.initial();
  if (num_states < 1) {
    return InvalidArgumentError("artifact XSD: automaton has no states");
  }
  if (xsd.automaton.num_symbols() != xsd.sigma.size()) {
    return InvalidArgumentError(
        "artifact XSD: automaton alphabet disagrees with sigma");
  }
  if (static_cast<int>(xsd.state_label.size()) != num_states ||
      static_cast<int>(xsd.content.size()) != num_states) {
    return InvalidArgumentError(
        "artifact XSD: per-state tables disagree with the state count");
  }
  if (xsd.state_label[init] != kNoSymbol) {
    return InvalidArgumentError("artifact XSD: q_init carries a label");
  }
  for (int q = 0; q < num_states; ++q) {
    const int label = xsd.state_label[q];
    if (q != init && (label < 0 || label >= xsd.sigma.size())) {
      return InvalidArgumentError("artifact XSD: state " + std::to_string(q) +
                                  " has out-of-range label " +
                                  std::to_string(label));
    }
    if (q != init && xsd.content[q].num_symbols() != xsd.sigma.size()) {
      return InvalidArgumentError(
          "artifact XSD: content model of state " + std::to_string(q) +
          " disagrees with the alphabet");
    }
    for (int a = 0; a < xsd.sigma.size(); ++a) {
      const int r = xsd.automaton.Next(q, a);
      if (r == kNoState) continue;
      if (r == init) {
        return InvalidArgumentError(
            "artifact XSD: q_init has an incoming transition");
      }
      if (xsd.state_label[r] != a) {
        return InvalidArgumentError(
            "artifact XSD: transition into state " + std::to_string(r) +
            " violates the state labeling");
      }
    }
  }
  return Status();
}

Status ReadDfaXsd(Reader* reader, DfaXsd* out) {
  DfaXsd xsd;
  STAP_RETURN_IF_ERROR(ReadAlphabet(reader, &xsd.sigma));
  STAP_RETURN_IF_ERROR(ReadSortedIdSet(reader, "XSD start symbol",
                                       xsd.sigma.size(), &xsd.start_symbols));
  STAP_RETURN_IF_ERROR(ReadDfa(reader, &xsd.automaton));
  uint32_t label_count = 0;
  STAP_RETURN_IF_ERROR(reader->ReadCount(&label_count, 4));
  if (static_cast<int>(label_count) != xsd.automaton.num_states()) {
    return InvalidArgumentError(
        "artifact XSD: label table size disagrees with the state count");
  }
  xsd.state_label.clear();
  for (uint32_t i = 0; i < label_count; ++i) {
    int32_t label = 0;
    STAP_RETURN_IF_ERROR(reader->ReadI32(&label));
    if (label != kNoSymbol && (label < 0 || label >= xsd.sigma.size())) {
      return BadValue("XSD state label", label, *reader);
    }
    xsd.state_label.push_back(label);
  }
  uint32_t content_count = 0;
  STAP_RETURN_IF_ERROR(reader->ReadCount(&content_count, 12));
  if (static_cast<int>(content_count) != xsd.automaton.num_states()) {
    return InvalidArgumentError(
        "artifact XSD: content table size disagrees with the state count");
  }
  for (uint32_t i = 0; i < content_count; ++i) {
    Dfa dfa;
    STAP_RETURN_IF_ERROR(ReadDfa(reader, &dfa));
    xsd.content.push_back(std::move(dfa));
  }
  STAP_RETURN_IF_ERROR(ValidateDfaXsd(xsd));
  *out = std::move(xsd);
  return Status();
}

template <typename T, typename AppendFn>
std::string SerializeSection(const T& value, AppendFn append) {
  Writer w;
  append(&w, value);
  return w.Take();
}

template <typename T, typename ReadFn>
StatusOr<T> DeserializeSection(std::string_view bytes, ReadFn read, T value) {
  Reader reader(bytes);
  STAP_RETURN_IF_ERROR(read(&reader, &value));
  STAP_RETURN_IF_ERROR(reader.ExpectDone());
  return value;
}

}  // namespace

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0x5354415043534131ull /* "STAPCSA1" */ ^
               (bytes.size() * 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i + b]))
              << (8 * b);
    }
    h = MixU64(h ^ word);
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;
    for (int b = 0; i + b < bytes.size(); ++b) {
      tail |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i + b]))
              << (8 * b);
    }
    h = MixU64(h ^ tail);
  }
  return MixU64(h);
}

std::string SerializeAlphabet(const Alphabet& alphabet) {
  return SerializeSection(alphabet, AppendAlphabet);
}
StatusOr<Alphabet> DeserializeAlphabet(std::string_view bytes) {
  return DeserializeSection<Alphabet>(bytes, ReadAlphabet, Alphabet());
}

std::string SerializeDfa(const Dfa& dfa) {
  return SerializeSection(dfa, AppendDfa);
}
StatusOr<Dfa> DeserializeDfa(std::string_view bytes) {
  return DeserializeSection<Dfa>(bytes, ReadDfa, Dfa());
}

std::string SerializeNfa(const Nfa& nfa) {
  return SerializeSection(nfa, AppendNfa);
}
StatusOr<Nfa> DeserializeNfa(std::string_view bytes) {
  return DeserializeSection<Nfa>(bytes, ReadNfa, Nfa(0, 0));
}

std::string SerializeEdtd(const Edtd& edtd) {
  return SerializeSection(edtd, AppendEdtd);
}
StatusOr<Edtd> DeserializeEdtd(std::string_view bytes) {
  return DeserializeSection<Edtd>(bytes, ReadEdtd, Edtd());
}

std::string SerializeDfaXsd(const DfaXsd& xsd) {
  return SerializeSection(xsd, AppendDfaXsd);
}
StatusOr<DfaXsd> DeserializeDfaXsd(std::string_view bytes) {
  return DeserializeSection<DfaXsd>(bytes, ReadDfaXsd, DfaXsd());
}

bool LooksLikeArtifact(std::string_view bytes) {
  return bytes.size() >= sizeof(kArtifactMagic) &&
         std::memcmp(bytes.data(), kArtifactMagic, sizeof(kArtifactMagic)) ==
             0;
}

std::string SerializeArtifact(const CompiledSchema& schema) {
  ScopedSpan span("artifact.serialize");
  Writer payload;
  payload.PutU64(schema.source_hash);
  AppendEdtd(&payload, schema.edtd);
  payload.PutU8(schema.single_type ? 1 : 0);
  if (schema.single_type) AppendDfaXsd(&payload, schema.xsd);
  payload.PutU32(static_cast<uint32_t>(schema.content_hashes.size()));
  for (uint64_t h : schema.content_hashes) payload.PutU64(h);

  const std::string body = payload.Take();
  Writer artifact;
  artifact.Append(std::string_view(kArtifactMagic, sizeof(kArtifactMagic)));
  artifact.PutU32(kArtifactVersion);
  artifact.PutU64(HashBytes(body));
  artifact.Append(body);
  std::string bytes = artifact.Take();
  GetCounter("artifact.serialize_bytes")->Increment(bytes.size());
  span.AddArg("bytes", static_cast<int64_t>(bytes.size()));
  return bytes;
}

StatusOr<CompiledSchema> DeserializeArtifact(std::string_view bytes) {
  ScopedSpan span("artifact.deserialize");
  span.AddArg("bytes", static_cast<int64_t>(bytes.size()));
  static Counter* const errors = GetCounter("artifact.deserialize_errors");
  auto fail = [&](Status status) {
    errors->Increment();
    return status;
  };
  if (bytes.size() < kArtifactHeaderSize) {
    return fail(InvalidArgumentError(
        "artifact header truncated: " + std::to_string(bytes.size()) +
        " bytes, need " + std::to_string(kArtifactHeaderSize)));
  }
  if (!LooksLikeArtifact(bytes)) {
    return fail(InvalidArgumentError("not a stap artifact (bad magic)"));
  }
  Reader header(bytes.substr(sizeof(kArtifactMagic), 12));
  uint32_t version = 0;
  uint64_t checksum = 0;
  STAP_RETURN_IF_ERROR(header.ReadU32(&version));
  STAP_RETURN_IF_ERROR(header.ReadU64(&checksum));
  if (version != kArtifactVersion) {
    return fail(InvalidArgumentError(
        "artifact format version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(kArtifactVersion) + ")"));
  }
  std::string_view payload = bytes.substr(kArtifactHeaderSize);
  if (HashBytes(payload) != checksum) {
    return fail(
        InvalidArgumentError("artifact checksum mismatch (corrupt payload)"));
  }

  Reader reader(payload);
  CompiledSchema schema;
  Status status = [&]() -> Status {
    STAP_RETURN_IF_ERROR(reader.ReadU64(&schema.source_hash));
    STAP_RETURN_IF_ERROR(ReadEdtd(&reader, &schema.edtd));
    uint8_t single_type = 0;
    STAP_RETURN_IF_ERROR(reader.ReadU8(&single_type));
    if (single_type > 1) {
      return BadValue("single-type flag", single_type, reader);
    }
    schema.single_type = single_type == 1;
    if (schema.single_type) {
      STAP_RETURN_IF_ERROR(ReadDfaXsd(&reader, &schema.xsd));
      if (!(schema.xsd.sigma == schema.edtd.sigma)) {
        return InvalidArgumentError(
            "artifact: XSD alphabet disagrees with the schema alphabet");
      }
    }
    uint32_t hash_count = 0;
    STAP_RETURN_IF_ERROR(reader.ReadCount(&hash_count, 8));
    if (static_cast<int>(hash_count) != schema.edtd.num_types()) {
      return InvalidArgumentError(
          "artifact: " + std::to_string(hash_count) +
          " provenance hashes for " +
          std::to_string(schema.edtd.num_types()) + " types");
    }
    for (uint32_t i = 0; i < hash_count; ++i) {
      uint64_t h = 0;
      STAP_RETURN_IF_ERROR(reader.ReadU64(&h));
      if (h != DfaStructuralHash(schema.edtd.content[i])) {
        return InvalidArgumentError(
            "artifact: provenance hash mismatch on content model of type " +
            std::to_string(i));
      }
      schema.content_hashes.push_back(h);
    }
    return reader.ExpectDone();
  }();
  if (!status.ok()) return fail(std::move(status));
  GetCounter("artifact.deserialize_ok")->Increment();
  return schema;
}

CompiledSchema MakeCompiledSchema(const Edtd& edtd, uint64_t source_hash) {
  ScopedSpan span("artifact.compile_schema");
  CompiledSchema schema;
  schema.edtd = ReduceEdtd(edtd);
  schema.source_hash = source_hash;
  schema.single_type = IsSingleType(schema.edtd);
  if (schema.single_type) schema.xsd = DfaXsdFromStEdtd(schema.edtd);
  schema.content_hashes.reserve(schema.edtd.content.size());
  for (const Dfa& dfa : schema.edtd.content) {
    schema.content_hashes.push_back(DfaStructuralHash(dfa));
  }
  span.AddArg("types", schema.edtd.num_types());
  span.AddArg("single_type", static_cast<int64_t>(schema.single_type));
  return schema;
}

bool LooksLikeXml(std::string_view text) {
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    return c == '<';
  }
  return false;
}

StatusOr<CompiledSchema> CompileSchema(std::string_view schema_text,
                                       CompileCache* cache, Budget* budget) {
  // Route by sniffing: XML documents go through the XSD frontend, which
  // has its own content-model memoization story (none yet — counted
  // models bypass the cache); everything else is the textual format.
  StatusOr<Edtd> edtd = LooksLikeXml(schema_text)
                            ? ImportXsd(schema_text, budget)
                            : ParseSchema(schema_text, cache, budget);
  if (!edtd.ok()) return edtd.status();
  return MakeCompiledSchema(*edtd, HashBytes(schema_text));
}

}  // namespace stap
