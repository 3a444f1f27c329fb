// batch_large: BatchValidate over fixed chunks of large in-memory
// documents, no sockets. See NOTES.md for why this shape.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>

#include "common.h"
#include "inputs.h"
#include "stap/io/batch_validate.h"
#include "stap/schema/validate.h"
#include "stap/tree/xml.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stap::DocumentVerdict;

constexpr int kJobs = 2;
constexpr int kRounds = 5;  // set-up + a share of the window, each
// Document sizes of every chunk, in MB; the last document of each chunk
// is made invalid. The schedule does not depend on the seed.
constexpr double kDocumentMb[] = {1.5, 0.8, 0.6, 0.4, 0.25, 0.1};
constexpr int kDeepDepth = 100000;
constexpr int kSampleDepth = 6;

// One op: one chunk, all against one schema.
struct Chunk {
  SchemaSource source;
  std::vector<stap::BatchDocument> documents;
  std::vector<bool> valid;  // the verdict fixed at generation
};

struct BatchInputs {
  std::vector<Chunk> chunks;
  uint64_t fingerprint = 0;
  size_t bytes = 0;
};

// outline.stap: outline -> Item*, item -> Label Item*. A chain of items,
// each holding a label and then the next item, is valid at any depth.
std::string DeepOutline(int depth) {
  std::string xml = "<outline>";
  for (int i = 0; i < depth; ++i) xml += "<item><label/>";
  for (int i = 0; i < depth; ++i) xml += "</item>";
  return xml + "</outline>";
}

BatchInputs MakeBatchInputs(const Options& options) {
  BatchInputs in;
  std::mt19937 rng(static_cast<uint32_t>(options.seed) ^ 0x5eedba7cu);
  Fingerprint fingerprint;
  // Three single-type schemas (one imported from XSD), the non-single-type
  // relaxng_style (the Edtd::Accepts path), and a recursive schema that
  // carries the deep document.
  for (const char* file : {"docbook_lite.stap", "jats_lite.stap",
                           "recipe.xsd", "relaxng_style.stap",
                           "outline.stap"}) {
    Chunk chunk;
    chunk.source = ReadSchema(file);
    const auto compiled = CompileOrDie(chunk.source);
    const DocumentFactory factory(compiled->edtd);
    const size_t n = std::size(kDocumentMb);
    for (size_t i = 0; i < n; ++i) {
      const bool valid = i + 1 < n;
      const size_t bytes = static_cast<size_t>(kDocumentMb[i] * 1e6);
      stap::BatchDocument document;
      document.name = chunk.source.name + "/" + std::to_string(i);
      if (i == 0 && chunk.source.name == "outline") {
        document.xml = DeepOutline(kDeepDepth);
      } else {
        document.xml = valid ? factory.Valid(&rng, bytes, kSampleDepth)
                             : factory.Invalid(&rng, bytes, kSampleDepth);
      }
      if (document.xml.size() < bytes * 9 / 10) {
        std::fprintf(stderr, "perfbench: cannot grow a %s document to %zu "
                     "bytes\n", file, bytes);
        std::exit(2);
      }
      fingerprint.Add(document.xml);
      fingerprint.Add(valid ? 1 : 0);
      in.bytes += document.xml.size();
      chunk.documents.push_back(std::move(document));
      chunk.valid.push_back(valid);
    }
    in.chunks.push_back(std::move(chunk));
  }
  if (options.plant == "verdict") {
    in.chunks[0].valid[0] = !in.chunks[0].valid[0];
  }
  in.fingerprint = fingerprint.value();
  return in;
}

bool VerdictMatches(const DocumentVerdict& verdict, bool valid) {
  return verdict.kind == (valid ? DocumentVerdict::Kind::kValid
                                : DocumentVerdict::Kind::kInvalid);
}

using Schemas = std::vector<std::shared_ptr<const stap::CompiledSchema>>;

Schemas CompileChunks(const BatchInputs& in) {
  Schemas schemas;
  for (const Chunk& chunk : in.chunks) {
    schemas.push_back(CompileOrDie(chunk.source));
  }
  return schemas;
}

// One op: BatchValidate over chunk `c`, with every verdict checked.
double RunChunk(const Schemas& schemas, const BatchInputs& in, size_t c,
                Tracer* tracer, Report* report) {
  const Chunk& chunk = in.chunks[c];
  stap::BatchOptions batch;
  batch.jobs = kJobs;
  const int64_t start_ns = NowNs();
  stap::BatchResult result;
  {
    ScopedSpan span(tracer, "batch.chunk");
    result = stap::BatchValidate(*schemas[c], chunk.documents, batch);
  }
  const double us = (NowNs() - start_ns) * 1e-3;
  ++report->attempted;
  for (size_t i = 0; i < chunk.documents.size(); ++i) {
    if (!VerdictMatches(result.verdicts[i], chunk.valid[i])) {
      report->Fail(chunk.documents[i].name + ": verdict " +
                   result.verdicts[i].message + ", expected " +
                   (chunk.valid[i] ? "valid" : "invalid"));
      break;
    }
  }
  return us;
}

// Whole passes over every chunk until `seconds` have elapsed (one pass
// when 0), logged into `log` when it is not null.
void RunPasses(const Schemas& schemas, const BatchInputs& in, double seconds,
               Tracer* tracer, Report* report, PassLog* log,
               Speedometer* speed = nullptr) {
  const int64_t start_ns = NowNs();
  do {
    const int64_t pass_start_ns = NowNs();
    for (size_t c = 0; c < in.chunks.size(); ++c) {
      const double us = RunChunk(schemas, in, c, tracer, report);
      if (log != nullptr) log->latencies_us[c].push_back(us);
    }
    const double seconds_taken = SecondsSince(pass_start_ns);
    if (speed != nullptr) speed->Sample();
    if (log != nullptr) {
      log->pass_seconds.push_back(seconds_taken);
      log->slowness.push_back(speed != nullptr ? speed->last() : 1.0);
    }
  } while (SecondsSince(start_ns) < seconds);
}

// Set-up: compile the chunk schemas and run one warm-up pass.
Schemas SetUp(const BatchInputs& in, std::vector<double>* seconds,
              Report* report) {
  const int64_t start_ns = NowNs();
  Schemas schemas = CompileChunks(in);
  RunPasses(schemas, in, 0, nullptr, report, nullptr);
  seconds->push_back(SecondsSince(start_ns));
  return schemas;
}

}  // namespace

void RunBatchLarge(const Options& options, Report* report) {
  const BatchInputs in = MakeBatchInputs(options);
  report->notes.push_back("inputs " + std::to_string(in.fingerprint) + ", " +
                          std::to_string(in.bytes) + " bytes per pass");
  std::vector<double> setup_seconds;
  if (!options.trace) {
    PassLog log(in.chunks.size());
    Speedometer speed;
    for (int round = 0; round < kRounds; ++round) {
      const Schemas schemas = SetUp(in, &setup_seconds, report);
      RunPasses(schemas, in, options.seconds / kRounds, nullptr, report, &log,
                &speed);
    }
    ReportEndToEnd(setup_seconds, log.Summarize(), speed, report);
    return;
  }
  const Schemas schemas = SetUp(in, &setup_seconds, report);
  PassLog untraced(in.chunks.size());
  RunPasses(schemas, in, options.seconds / 2, nullptr, report, &untraced);
  Tracer tracer;
  PassLog traced(in.chunks.size());
  RunPasses(schemas, in, options.seconds / 2, &tracer, report, &traced);
  ReportTracingOverhead(untraced.Summarize(), traced.Summarize(), report);
}

// Per-layer metrics of the document path, from a serial replay of one
// pass: per document, ValidateDocument is timed whole, and beside it the
// layers it is made of are timed one by one on the same document
// (ParseXml onto a private alphabet copy, the validator, tree teardown).
// One BatchValidate pass at kJobs gives the parallel efficiency.
void DocumentLayers(const Options& options, Report* report) {
  const BatchInputs in = MakeBatchInputs(options);
  const Schemas schemas = CompileChunks(in);
  RunPasses(schemas, in, 0, nullptr, report, nullptr);  // warm-up

  Tracer tracer;
  int64_t documents = 0;
  int64_t nodes = 0;
  int max_depth = 0;
  for (size_t c = 0; c < in.chunks.size(); ++c) {
    const stap::CompiledSchema& schema = *schemas[c];
    const Chunk& chunk = in.chunks[c];
    for (size_t i = 0; i < chunk.documents.size(); ++i) {
      const std::string& xml = chunk.documents[i].xml;
      ++documents;
      ++report->attempted;
      DocumentVerdict verdict;
      {
        ScopedSpan span(&tracer, "io.validate_document");
        verdict = stap::ValidateDocument(schema, xml, nullptr);
      }
      if (!VerdictMatches(verdict, chunk.valid[i])) {
        report->Fail(chunk.documents[i].name + ": replayed verdict " +
                     verdict.message);
      }
      stap::Alphabet alphabet = schema.edtd.sigma;
      stap::StatusOr<stap::Tree> parsed = [&] {
        ScopedSpan span(&tracer, "tree.parse_xml");
        return stap::ParseXml(xml, &alphabet);
      }();
      if (!parsed.ok()) {
        report->Fail(chunk.documents[i].name + ": " +
                     parsed.status().ToString());
        continue;
      }
      std::optional<stap::Tree> tree(std::move(*parsed));
      nodes += tree->NumNodes();
      max_depth = std::max(max_depth, tree->Depth());
      if (alphabet.size() == schema.edtd.sigma.size()) {
        if (schema.single_type) {
          ScopedSpan span(&tracer, "schema.validate_xsd");
          stap::ValidateWithDiagnostics(schema.xsd, *tree);
        } else {
          ScopedSpan span(&tracer, "schema.accepts_edtd");
          schema.edtd.Accepts(*tree);
        }
      }
      ScopedSpan span(&tracer, "tree.teardown");
      tree.reset();
    }
  }
  double batch_us = 0;
  for (size_t c = 0; c < in.chunks.size(); ++c) {
    batch_us += RunChunk(schemas, in, c, nullptr, report);
  }

  std::map<std::string, Tracer::Totals> totals = tracer.Summarize();
  const double document_us = totals["io.validate_document"].total_us;
  const double parse_us = totals["tree.parse_xml"].total_us;
  const double layers_us = parse_us + totals["schema.validate_xsd"].total_us +
                           totals["schema.accepts_edtd"].total_us +
                           totals["tree.teardown"].total_us;
  report->AddLayer("io.validate_document_us", document_us / documents, "us");
  report->AddLayer("io.validate_document_self_us",
                   (document_us - layers_us) / documents, "us");
  report->AddLayer("io.parallel_efficiency", document_us / (kJobs * batch_us),
                   "ratio");
  report->AddLayer("tree.parse_xml_us", totals["tree.parse_xml"].mean_us(),
                   "us");
  report->AddLayer("tree.parse_mb_per_s", in.bytes / parse_us, "MB/s");
  report->AddLayer("tree.teardown_us", totals["tree.teardown"].mean_us(),
                   "us");
  report->AddLayer("tree.nodes", static_cast<double>(nodes) / documents,
                   "count");
  report->AddLayer("tree.max_depth", max_depth, "count");
  report->AddLayer("schema.validate_xsd_us",
                   totals["schema.validate_xsd"].mean_us(), "us");
  report->AddLayer("schema.accepts_edtd_us",
                   totals["schema.accepts_edtd"].mean_us(), "us");
  report->AddLayer("trace.batch_coverage", layers_us / document_us, "ratio");
}

}  // namespace perfbench
