// stap — command-line front end for the library.
//
//   stap validate <schema> <doc...>      validate XML documents (the schema
//                                        may be textual or a compiled
//                                        artifact; many docs fan out over
//                                        --jobs=N threads, report in input
//                                        order)
//   stap compile <schema> -o <artifact>  compile a schema to a binary
//                                        artifact for the warm serving path
//   stap check <schema>                  report schema properties
//   stap minimize <schema>               canonical minimal XSD
//   stap approx <schema>                 minimal upper XSD-approximation
//   stap merge <s1> <s2>                 upper approximation of the union
//   stap intersect <s1> <s2>             exact intersection
//   stap diff <s1> <s2>                  upper approximation of s1 \ s2
//   stap complement <schema>             upper approximation of the complement
//   stap lower <s1> <s2>                 maximal lower approx of the union
//                                        containing s1 (Theorem 4.8)
//   stap included <s1> <s2>              is L(s1) ⊆ L(s2)? (s2 single-type)
//   stap witness <s1> <s2>               a document in L(s1) \ L(s2)
//   stap types <schema> <doc.xml>        print the document's typing
//   stap report <s1> <s2>                full comparison report
//   stap sample <schema> [count]         sample random documents
//   stap count <schema> <depth> <width>  count documents within bounds
//   stap export <schema> [--repair-upa]  write a W3C-style .xsd document
//   stap import <schema.xsd>             read a W3C-style .xsd document
//   stap family <name> <n>               generate a paper lower-bound family
//   stap explain <schema>                approximate and print a per-phase
//                                        provenance table (sizes, wall ms)
//   stap serve [flags]                   long-running validation daemon:
//                                        binary validate/included/approx
//                                        requests over a length-prefixed
//                                        socket protocol, plus HTTP
//                                        /metrics and /healthz; runs until
//                                        SIGINT/SIGTERM, then drains and
//                                        exits 0
//
// Global flags (accepted anywhere on the command line):
//   --jobs=N             worker threads for batch validation (0 = one per
//                        hardware thread; default 1)
//   --budget-ms=N        wall-clock deadline for the command's kernels
//   --max-states=N       cap on created automaton/product states
//   --max-sets=N         cap on frontier/subset sets
//   --metrics-json[=F]   dump the metrics registry as JSON to file F
//                        (bare flag or F=- writes to stderr)
//   --metrics-prom[=F]   dump the metrics registry in Prometheus
//                        exposition format (bare flag or F=- → stderr)
//   --trace-json[=F]     record a Chrome trace-event session around the
//                        command and write it to F (bare/- → stderr);
//                        load the file in Perfetto or chrome://tracing
//
// A command stopped by the budget exits with code 3 (kResourceExhausted)
// after printing the exhaustion reason; the metrics dump still runs, so
// the partial work is observable.
//
// Schemas use the textual format of schema/text_format.h (docs/FORMAT.md)
// unless stated otherwise; results are printed in the same format.
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stap/approx/inclusion.h"
#include "stap/base/budget.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/base/trace.h"
#include "stap/gen/families.h"
#include "stap/approx/lower_check.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/approx/diff_report.h"
#include "stap/approx/witness.h"
#include "stap/gen/random.h"
#include "stap/regex/bkw.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/count/counter.h"
#include "stap/count/measure.h"
#include "stap/schema/text_format.h"
#include "stap/schema/typing.h"
#include "stap/schema/xsd_io.h"
#include "stap/schema/type_automaton.h"
#include "stap/serve/client.h"
#include "stap/serve/server.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

int Usage() {
  std::cerr
      << "usage: stap <command> <args>\n"
         "  validate <schema> <doc...>    validate documents (schema text or\n"
         "                                compiled artifact; many docs fan\n"
         "                                out over --jobs=N threads)\n"
         "  compile <schema> -o <file>    compile a schema to an artifact\n"
         "  check <schema>                report schema properties\n"
         "  minimize <schema>             canonical minimal XSD\n"
         "  approx <schema>               minimal upper XSD-approximation\n"
         "  merge <s1> <s2>               upper approximation of the union\n"
         "  intersect <s1> <s2>           exact intersection\n"
         "  diff <s1> <s2>                upper approximation of s1 \\ s2\n"
         "  complement <schema>           upper approx of the complement\n"
         "  lower <s1> <s2>               maximal lower approx of the union\n"
         "  included <s1> <s2>            L(s1) subset of L(s2)?\n"
         "  witness <s1> <s2>             a document in L(s1) \\ L(s2)\n"
         "  types <schema> <doc.xml>      print the document's typing\n"
         "  report <s1> <s2>              full comparison report\n"
         "  sample <schema> [count]       sample random documents\n"
         "  count <schema> <depth> <w>    count documents within bounds\n"
         "  measure <schema> [flags]      tree-counting precision report:\n"
         "                                exact |L(S)|, |L(upper)\\L(S)|,\n"
         "                                |L(S)\\L(lower)| per depth; flags:\n"
         "                                --upper --lower --both (default)\n"
         "                                --depth=D --width=W --json\n"
         "  export <schema> [--repair-upa]  write a W3C-style .xsd\n"
         "  import <schema.xsd>           read a W3C-style .xsd\n"
         "  family <name> <n>             generate a lower-bound family\n"
         "                                (theorem32, theorem36a/b,\n"
         "                                theorem38a/b, theorem43a/b,\n"
         "                                theorem411, counted;\n"
         "                                43/411 ignore n, counted uses\n"
         "                                Item{n,2n})\n"
         "  explain <schema>              approximate and print a per-phase\n"
         "                                provenance table\n"
         "          [--schema-guided]     run content merges through the\n"
         "                                schema-guided determinizer and\n"
         "                                report pruning counters\n"
         "  serve [flags]                 validation daemon; flags:\n"
         "                                --port=N (0 = ephemeral)\n"
         "                                --schemas=DIR (*.stapc/*.stap)\n"
         "                                --max-connections=N\n"
         "                                --max-inflight=N\n"
         "                                --request-budget-ms=N\n"
         "                                --request-max-states=N\n"
         "                                --request-max-sets=N\n"
         "                                --access-log=FILE (JSONL)\n"
         "                                --slow-ms=N (slow-request capture)\n"
         "                                --log-ring=N --slow-ring=N\n"
         "  top --port=N [--host=H]       live one-screen view of a serve\n"
         "      [--interval-ms=N]         daemon (/statusz + /metrics):\n"
         "      [--count=N]               qps, p50/p99, error rates, cache\n"
         "global flags: --jobs=N --budget-ms=N --max-states=N --max-sets=N\n"
         "              --metrics-json[=file] --metrics-prom[=file]\n"
         "              --trace-json[=file]  (exit 3 = budget exhausted)\n"
         "schema arguments accept the textual format (docs/FORMAT.md) or a\n"
         "W3C .xsd document (auto-detected by a leading '<')\n";
  return 2;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// Loads a schema source for the analysis commands: a W3C XSD document
// (sniffed via LooksLikeXml) goes through the XSD importer, anything else
// through the textual-format parser. Content-model compilation — including
// counted-repetition expansion — is charged against `budget` when set.
StatusOr<Edtd> LoadSchema(const std::string& path, Budget* budget = nullptr) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  if (LooksLikeXml(*text)) return ImportXsd(*text, budget);
  return ParseSchema(*text, /*cache=*/nullptr, budget);
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  // Budget exhaustion is an expected, recoverable outcome (retry with a
  // larger budget); give it a distinct exit code scripts can branch on.
  return status.code() == StatusCode::kResourceExhausted ? 3 : 1;
}

// Global flags shared by every command.
struct GlobalOptions {
  std::unique_ptr<Budget> budget;  // null = unlimited
  bool dump_metrics = false;
  std::string metrics_path;  // empty or "-" = stderr
  bool dump_prom = false;
  std::string prom_path;  // empty or "-" = stderr
  bool trace = false;
  std::string trace_path;  // empty or "-" = stderr
  // --jobs=N worker threads for batch validation; -1 = unset (serial,
  // single-document compatibility mode), 0 = one per hardware thread.
  int jobs = -1;
  // Session wrapping the whole command when --trace-json is given; also
  // borrowed by `explain` for its phase table so one recording serves both.
  std::unique_ptr<TraceSession> session;
  // Registry value at session start, so `explain` can cross-check span
  // sums against counter deltas over the exact recording window.
  int64_t states_at_trace_start = 0;

  Budget* budget_ptr() const { return budget.get(); }
};

// Extracts the global --budget-ms/--max-states/--max-sets/--metrics-json/
// --metrics-prom/--trace-json flags from anywhere on the command line;
// everything else passes through in order. Returns false on a malformed
// flag value. (Keep this list in sync with Usage() and the file header.)
bool ParseGlobalFlags(int argc, char** argv, std::vector<std::string>* args,
                      GlobalOptions* options) {
  auto budget = [&]() -> Budget* {
    if (options->budget == nullptr) options->budget = std::make_unique<Budget>();
    return options->budget.get();
  };
  auto int_value = [](const std::string& text, int64_t* out) {
    char* end = nullptr;
    long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || parsed < 0) return false;
    *out = parsed;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int64_t value = 0;
    if (arg.rfind("--budget-ms=", 0) == 0) {
      if (!int_value(arg.substr(12), &value)) return false;
      budget()->set_deadline_ms(value);
    } else if (arg.rfind("--max-states=", 0) == 0) {
      if (!int_value(arg.substr(13), &value)) return false;
      budget()->set_max_states(value);
    } else if (arg.rfind("--max-sets=", 0) == 0) {
      if (!int_value(arg.substr(11), &value)) return false;
      budget()->set_max_sets(value);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!int_value(arg.substr(7), &value) || value > 1024) return false;
      options->jobs = static_cast<int>(value);
    } else if (arg == "--metrics-json") {
      options->dump_metrics = true;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      options->dump_metrics = true;
      options->metrics_path = arg.substr(15);
    } else if (arg == "--metrics-prom") {
      options->dump_prom = true;
    } else if (arg.rfind("--metrics-prom=", 0) == 0) {
      options->dump_prom = true;
      options->prom_path = arg.substr(15);
    } else if (arg == "--trace-json") {
      options->trace = true;
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      options->trace = true;
      options->trace_path = arg.substr(13);
    } else {
      args->push_back(std::move(arg));
    }
  }
  return true;
}

// Checked decimal parse for positional counts (sample count, count
// bounds, family size), mirroring the global-flag parser: garbage,
// trailing junk, and out-of-range values are reported as errors instead
// of silently becoming 0 the way std::atoi made them.
bool ParseCount(const std::string& text, int64_t min_value, int64_t max_value,
                int* out) {
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < min_value || parsed > max_value) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

int BadCount(const std::string& what, const std::string& text,
             int64_t min_value, int64_t max_value) {
  return Fail(InvalidArgumentError(
      "invalid " + what + " '" + text + "' (expected an integer in [" +
      std::to_string(min_value) + ", " + std::to_string(max_value) + "])"));
}

// Writes `text` to `path` ("" or "-" = stderr). Returns the exit code,
// degraded to 1 on a write failure that would otherwise be reported as
// success.
int WriteDump(const std::string& text, const std::string& path,
              const char* what, int exit_code) {
  if (path.empty() || path == "-") {
    std::cerr << text << "\n";
    return exit_code;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << what << " to '" << path << "'\n";
    return exit_code == 0 ? 1 : exit_code;
  }
  out << text << "\n";
  return exit_code;
}

// Writes the metrics registry to the configured sinks. Runs after the
// command body whatever its outcome, so budget-exhausted runs still
// report how far they got.
int DumpMetrics(const GlobalOptions& options, int exit_code) {
  if (options.dump_metrics) {
    exit_code = WriteDump(MetricsRegistry::Global()->ToJson(),
                          options.metrics_path, "metrics", exit_code);
  }
  if (options.dump_prom) {
    exit_code = WriteDump(MetricsRegistry::Global()->ToPrometheusText(),
                          options.prom_path, "metrics", exit_code);
  }
  return exit_code;
}

// Stops the --trace-json session (if any) and writes the Chrome trace.
int DumpTrace(GlobalOptions& options, int exit_code) {
  if (options.session == nullptr) return exit_code;
  options.session->Stop();
  return WriteDump(options.session->ToChromeJson(), options.trace_path,
                   "trace", exit_code);
}

// Loads a schema for the validation path: a compiled artifact is
// deserialized as-is; textual schemas compile through the process-wide
// content-model cache (so repeated invocations in one process — and the
// batch tests — share compilations).
StatusOr<CompiledSchema> LoadCompiledSchema(const std::string& path,
                                            Budget* budget = nullptr) {
  StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (LooksLikeArtifact(*bytes)) return DeserializeArtifact(*bytes);
  return CompileSchema(*bytes, CompileCache::Global(), budget);
}

int CmdCompile(const std::vector<std::string>& argv, Budget* budget) {
  // compile <schema> -o <artifact>
  if (argv.size() != 5 || argv[3] != "-o") return Usage();
  StatusOr<std::string> text = ReadFile(argv[2]);
  if (!text.ok()) return Fail(text.status());
  if (LooksLikeArtifact(*text)) {
    return Fail(InvalidArgumentError("'" + argv[2] +
                                     "' is already a compiled artifact"));
  }
  StatusOr<CompiledSchema> schema =
      CompileSchema(*text, CompileCache::Global(), budget);
  if (!schema.ok()) return Fail(schema.status());
  const std::string bytes = SerializeArtifact(*schema);
  std::ofstream out(argv[4], std::ios::binary);
  if (!out || !(out << bytes) || !out.flush()) {
    return Fail(InternalError("cannot write artifact to '" + argv[4] + "'"));
  }
  std::cout << "compiled " << argv[2] << ": " << schema->edtd.num_types()
            << " types, single-type "
            << (schema->single_type ? "yes" : "no") << ", " << bytes.size()
            << " bytes -> " << argv[4] << "\n";
  return 0;
}

// Single-document validation, output-compatible with the historical
// `stap validate <schema> <doc.xml>`: batch mode's verdict for one
// document, printed without the file name and summary line.
int ValidateSingle(const CompiledSchema& schema, const std::string& doc_path,
                   Budget* budget) {
  StatusOr<std::string> xml = ReadFile(doc_path);
  if (!xml.ok()) return Fail(xml.status());
  DocumentVerdict verdict = ValidateDocument(schema, *xml, budget);
  if (verdict.kind == DocumentVerdict::Kind::kError) {
    return Fail(Status(verdict.error_code, verdict.message));
  }
  if (verdict.kind == DocumentVerdict::Kind::kValid) {
    std::cout << "VALID\n";
    return 0;
  }
  std::cout << "INVALID: " << verdict.message << "\n";
  return 1;
}

int CmdValidate(const std::vector<std::string>& argv,
                const GlobalOptions& options) {
  StatusOr<CompiledSchema> schema =
      LoadCompiledSchema(argv[2], options.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());
  if (argv.size() == 4 && options.jobs < 0) {
    return ValidateSingle(*schema, argv[3], options.budget_ptr());
  }
  // Batch mode: one status line per document, in input order, plus a
  // summary — byte-identical output whatever the job count.
  std::vector<BatchDocument> documents;
  documents.reserve(argv.size() - 3);
  for (size_t i = 3; i < argv.size(); ++i) {
    BatchDocument doc;
    doc.name = argv[i];
    StatusOr<std::string> xml = ReadFile(argv[i]);
    if (xml.ok()) {
      doc.xml = std::move(*xml);
    } else {
      // An unreadable file surfaces as a per-document ERROR line, not a
      // whole-batch failure.
      doc.read_error = xml.status().message();
    }
    documents.push_back(std::move(doc));
  }
  BatchOptions batch_options;
  batch_options.jobs = options.jobs < 0 ? 1 : options.jobs;
  batch_options.budget = options.budget_ptr();
  BatchResult result = BatchValidate(*schema, documents, batch_options);
  std::cout << FormatBatchReport(documents, result);
  return result.all_valid() ? 0 : 1;
}

int CmdCheck(const std::string& schema_path, Budget* budget) {
  StatusOr<Edtd> schema = LoadSchema(schema_path, budget);
  if (!schema.ok()) return Fail(schema.status());
  Edtd reduced = ReduceEdtd(*schema);
  StatusOr<bool> definable = IsSingleTypeDefinable(reduced, budget);
  if (!definable.ok()) return Fail(definable.status());
  // UPA (Section 5): is every content model a one-unambiguous language?
  bool upa = true;
  for (int tau = 0; tau < reduced.num_types() && upa; ++tau) {
    StatusOr<bool> one_unambiguous =
        IsOneUnambiguousLanguage(reduced.content[tau], budget);
    if (!one_unambiguous.ok()) return Fail(one_unambiguous.status());
    upa = *one_unambiguous;
  }
  std::cout << "types (declared):  " << schema->num_types() << "\n"
            << "types (reduced):   " << reduced.num_types() << "\n"
            << "alphabet:          " << reduced.sigma.size() << " elements\n"
            << "empty language:    "
            << (reduced.num_types() == 0 ? "yes" : "no") << "\n"
            << "single-type (EDC): "
            << (IsSingleType(reduced) ? "yes" : "no") << "\n"
            << "single-type definable: " << (*definable ? "yes" : "no")
            << "\n"
            << "UPA-expressible content models: " << (upa ? "yes" : "no")
            << "\n";
  return 0;
}

int PrintXsd(const DfaXsd& xsd, Budget* budget) {
  StatusOr<DfaXsd> minimized = MinimizeXsd(xsd, budget);
  if (!minimized.ok()) return Fail(minimized.status());
  std::cout << SchemaToText(StEdtdFromDfaXsd(*minimized));
  return 0;
}

int CmdSample(const std::string& schema_path, int count, Budget* budget) {
  StatusOr<Edtd> schema = LoadSchema(schema_path, budget);
  if (!schema.ok()) return Fail(schema.status());
  Edtd reduced = ReduceEdtd(*schema);
  if (reduced.num_types() == 0) return Fail(InvalidArgumentError(
      "schema language is empty"));
  if (!IsSingleType(reduced)) {
    return Fail(UnimplementedError(
        "sampling requires a single-type schema; run 'approx' first"));
  }
  DfaXsd xsd = DfaXsdFromStEdtd(reduced);
  std::random_device device;
  std::mt19937 rng(device());
  for (int i = 0; i < count; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng, 6);
    if (!tree.has_value()) break;
    std::cout << ToXml(*tree, xsd.sigma);
    if (i + 1 < count) std::cout << "<!-- -->\n";
  }
  return 0;
}

// `stap measure <schema> [--upper|--lower|--both] [--depth=D] [--width=W]
// [--json]`: exact precision analytics. Counts |L(S)|, |L(upper)|, and
// |L(lower)| by depth with the counting DP, plus the pairwise
// intersections, and reports the gained/lost document counts and the
// precision/recall ratios. Budget exhaustion surfaces as exit 3 via Fail.
int CmdMeasure(const std::vector<std::string>& args, Budget* budget) {
  MeasureOptions options;
  bool json = false;
  bool side_chosen = false;
  for (size_t i = 3; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--upper") {
      options.upper = true;
      options.lower = side_chosen && options.lower;
      side_chosen = true;
    } else if (flag == "--lower") {
      options.lower = true;
      options.upper = side_chosen && options.upper;
      side_chosen = true;
    } else if (flag == "--both") {
      options.upper = true;
      options.lower = true;
      side_chosen = true;
    } else if (flag == "--json") {
      json = true;
    } else if (flag.rfind("--depth=", 0) == 0) {
      if (!ParseCount(flag.substr(8), 1, 64, &options.bounds.max_depth)) {
        return BadCount("depth bound", flag.substr(8), 1, 64);
      }
    } else if (flag.rfind("--width=", 0) == 0) {
      if (!ParseCount(flag.substr(8), 0, 64, &options.bounds.max_width)) {
        return BadCount("width bound", flag.substr(8), 0, 64);
      }
    } else {
      return Usage();
    }
  }
  StatusOr<Edtd> schema = LoadSchema(args[2], budget);
  if (!schema.ok()) return Fail(schema.status());
  StatusOr<MeasureResult> result = MeasureSchema(*schema, options, budget);
  if (!result.ok()) return Fail(result.status());
  std::cout << (json ? result->ToJson() : result->ToText());
  if (json) std::cout << "\n";
  return 0;
}

// `stap explain`: run the approximation pipeline under a trace session and
// print the per-phase provenance rollup — each phase with call count, wall
// time, and the size counters its spans recorded. Reuses the global
// --trace-json session when one is active so the same recording also lands
// in the Chrome trace; otherwise records into a throwaway local session.
int CmdExplain(const std::string& schema_path, bool schema_guided,
               GlobalOptions& options) {
  StatusOr<Edtd> schema = LoadSchema(schema_path, options.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());

  Counter* const determinize_states = GetCounter("determinize.states_created");
  Counter* const schema_calls = GetCounter("determinize.schema_calls");
  Counter* const pruned_states =
      GetCounter("determinize.schema_pruned_states");
  Counter* const pruned_transitions =
      GetCounter("determinize.schema_pruned_transitions");
  const int64_t schema_calls_before = schema_calls->value();
  const int64_t pruned_states_before = pruned_states->value();
  const int64_t pruned_transitions_before = pruned_transitions->value();
  TraceSession local;
  TraceSession* session = options.session.get();
  // The registry delta is measured over the recording window, so it is
  // comparable to the span sums whichever session records.
  int64_t states_before = options.states_at_trace_start;
  if (session == nullptr) {
    states_before = determinize_states->value();
    session = &local;
    local.Start();
  }

  // --schema-guided: run every content merge under the union-of-contents
  // context. That context is exact-mode (upper.h), so the resulting XSD
  // is identical — the flag exists to exercise and observe the
  // schema-guided path on real schemas, not to change the answer.
  UpperOptions upper_options;
  Nfa content_context(0, 0);
  if (schema_guided) {
    content_context = ContentUnionContext(*schema);
    upper_options.content_context = &content_context;
  }
  StatusOr<DfaXsd> xsd =
      MinimalUpperApproximation(*schema, options.budget_ptr(), upper_options);
  if (session == &local) local.Stop();
  // The phase table is printed even when the budget ran out: seeing where
  // the states went is most valuable exactly then.
  std::cout << TraceSession::FormatPhaseTable(session->PhaseTable());
  // Cross-check: the `states_created` args summed over every determinize
  // span (any depth) must equal the registry counter's delta over the
  // recording window — both count the same subset-construction states.
  int64_t traced_states = 0;
  for (const TraceSession::PhaseRow& row :
       session->PhaseTable(/*max_depth=*/1 << 20)) {
    if (row.name != "determinize") continue;
    for (const auto& [key, value] : row.int_args) {
      if (key == "states_created") traced_states += value;
    }
  }
  const int64_t registry_states =
      determinize_states->value() - states_before;
  std::cout << "cross-check: determinize.states_created +" << registry_states
            << " (registry), " << traced_states << " (trace spans)"
            << (registry_states == traced_states ? "" : "  MISMATCH") << "\n";
  // Schema-guided pruning summary (all deltas over this run); printed
  // whenever the guided path ran so dense runs stay byte-compatible.
  if (schema_calls->value() != schema_calls_before) {
    std::cout << "schema-guided: " << schema_calls->value() - schema_calls_before
              << " guided determinizations, "
              << pruned_states->value() - pruned_states_before
              << " subsets pruned, "
              << pruned_transitions->value() - pruned_transitions_before
              << " transitions redirected\n";
  }
  if (!xsd.ok()) return Fail(xsd.status());
  std::cout << "result: " << xsd->automaton.num_states()
            << " XSD states over " << xsd->sigma.size() << " elements\n";
  return 0;
}

// Self-pipe for signal-driven shutdown: the handler writes one byte, the
// serving thread blocks on the read end. Async-signal-safe (write only).
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void ServeSignalHandler(int /*signum*/) {
  const char byte = 1;
  // The return value is irrelevant: a full pipe means shutdown is
  // already pending.
  [[maybe_unused]] ssize_t ignored = ::write(g_shutdown_pipe[1], &byte, 1);
}

// serve [--port=N] [--schemas=DIR] [--max-connections=N] [--max-inflight=N]
//       [--request-budget-ms=N] [--request-max-states=N]
//       [--request-max-sets=N] [--access-log=FILE] [--slow-ms=N]
//       [--log-ring=N] [--slow-ring=N]
// Prints the bound address ("serving on HOST:PORT") once ready, then runs
// until SIGINT/SIGTERM, drains connections, and exits 0. --access-log
// appends one JSONL record per request; requests slower than --slow-ms
// keep their span tree for /requestz (ring sizes via --log-ring /
// --slow-ring).
int CmdServe(const std::vector<std::string>& argv) {
  ServeOptions options;
  for (size_t i = 2; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    auto flag_value = [&](const char* prefix, int64_t min_value,
                          int64_t max_value, int64_t* out) {
      const std::string text = arg.substr(std::strlen(prefix));
      int value = 0;
      if (!ParseCount(text, min_value, max_value, &value)) return false;
      *out = value;
      return true;
    };
    int64_t value = 0;
    if (arg.rfind("--port=", 0) == 0) {
      if (!flag_value("--port=", 0, 65535, &value)) return Usage();
      options.port = static_cast<int>(value);
    } else if (arg.rfind("--schemas=", 0) == 0) {
      options.schema_dir = arg.substr(10);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      if (!flag_value("--max-connections=", 1, 4096, &value)) return Usage();
      options.max_connections = static_cast<int>(value);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      if (!flag_value("--max-inflight=", 0, 4096, &value)) return Usage();
      options.max_inflight = static_cast<int>(value);
    } else if (arg.rfind("--request-budget-ms=", 0) == 0) {
      if (!flag_value("--request-budget-ms=", 0, 86400000, &value)) {
        return Usage();
      }
      options.request_budget_ms = value;
    } else if (arg.rfind("--request-max-states=", 0) == 0) {
      if (!flag_value("--request-max-states=", 0, 1000000000, &value)) {
        return Usage();
      }
      options.request_max_states = value;
    } else if (arg.rfind("--request-max-sets=", 0) == 0) {
      if (!flag_value("--request-max-sets=", 0, 1000000000, &value)) {
        return Usage();
      }
      options.request_max_sets = value;
    } else if (arg.rfind("--access-log=", 0) == 0) {
      options.access_log_path = arg.substr(13);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      if (!flag_value("--slow-ms=", 0, 86400000, &value)) return Usage();
      options.slow_request_ms = value;
    } else if (arg.rfind("--log-ring=", 0) == 0) {
      if (!flag_value("--log-ring=", 1, 1000000, &value)) return Usage();
      options.access_log_ring = static_cast<size_t>(value);
    } else if (arg.rfind("--slow-ring=", 0) == 0) {
      if (!flag_value("--slow-ring=", 1, 1000000, &value)) return Usage();
      options.slow_ring = static_cast<size_t>(value);
    } else {
      return Usage();
    }
  }

  if (::pipe(g_shutdown_pipe) != 0) {
    return Fail(InternalError("cannot create the shutdown pipe"));
  }
  Server server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  // std::endl flushes, so wrapper scripts can scrape the port as soon as
  // the line appears even when stdout is a file.
  std::cout << "serving on 127.0.0.1:" << server.port() << std::endl;

  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cout << "shutting down" << std::endl;
  server.Stop();
  return 0;
}

// The /statusz document is deliberately flat ("key": number per line), so
// the operator CLI can read it without a JSON parser: find the quoted key
// and strtod whatever follows the colon.
double FindJsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

// First sample of a Prometheus exposition metric (line-anchored match).
double FindPromValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return 0;
}

// top --port=N [--host=H] [--interval-ms=N] [--count=N]
// Polls /statusz and /metrics and renders a refreshing one-screen view:
// qps (both the 60s window and the poll-to-poll delta), latency
// quantiles, per-code rates, liveness, and compile-cache hits. --count=N
// exits after N refreshes (0 = run until interrupted).
int CmdTop(const std::vector<std::string>& argv) {
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t interval_ms = 1000;
  int64_t count = 0;
  for (size_t i = 2; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    auto flag_value = [&](const char* prefix, int64_t min_value,
                          int64_t max_value, int64_t* out) {
      int value = 0;
      if (!ParseCount(arg.substr(std::strlen(prefix)), min_value, max_value,
                      &value)) {
        return false;
      }
      *out = value;
      return true;
    };
    if (arg.rfind("--port=", 0) == 0) {
      if (!flag_value("--port=", 1, 65535, &port)) return Usage();
    } else if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--interval-ms=", 0) == 0) {
      if (!flag_value("--interval-ms=", 10, 3600000, &interval_ms)) {
        return Usage();
      }
    } else if (arg.rfind("--count=", 0) == 0) {
      if (!flag_value("--count=", 0, 1000000000, &count)) return Usage();
    } else {
      return Usage();
    }
  }
  if (port == 0) return Usage();

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  double prev_requests = -1;
  double prev_cache_hits = 0;
  auto prev_time = std::chrono::steady_clock::now();
  for (int64_t iteration = 0; count == 0 || iteration < count; ++iteration) {
    if (iteration > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    StatusOr<std::string> statusz = HttpGetBody(host, static_cast<int>(port),
                                                "/statusz");
    if (!statusz.ok()) return Fail(statusz.status());
    StatusOr<std::string> metrics = HttpGetBody(host, static_cast<int>(port),
                                                "/metrics");
    if (!metrics.ok()) return Fail(metrics.status());
    const auto now = std::chrono::steady_clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - prev_time).count();

    const double total_requests = FindJsonNumber(*statusz, "total_requests");
    const double cache_hits = FindPromValue(*metrics, "stap_cache_hit");
    const double delta_qps =
        prev_requests >= 0 && elapsed_s > 0
            ? (total_requests - prev_requests) / elapsed_s
            : 0;

    if (tty) std::fputs("\x1b[2J\x1b[H", stdout);
    std::printf("stap top — %s:%d    up %.0fs    epoch %.0f    schemas %.0f\n",
                host.c_str(), static_cast<int>(port),
                FindJsonNumber(*statusz, "uptime_s"),
                FindJsonNumber(*statusz, "snapshot_epoch"),
                FindJsonNumber(*statusz, "schema_count"));
    std::printf(
        "requests  total %.0f    qps %.0f (window %.0fs)    qps %.0f "
        "(last %.1fs)\n",
        total_requests, FindJsonNumber(*statusz, "window_qps"),
        FindJsonNumber(*statusz, "window_s"), delta_qps, elapsed_s);
    std::printf(
        "latency   p50 %.0fµs    p95 %.0fµs    p99 %.0fµs    max %.0fµs    "
        "mean %.1fµs\n",
        FindJsonNumber(*statusz, "p50_us"),
        FindJsonNumber(*statusz, "p95_us"),
        FindJsonNumber(*statusz, "p99_us"),
        FindJsonNumber(*statusz, "max_us"),
        FindJsonNumber(*statusz, "mean_us"));
    std::printf(
        "codes/win ok %.0f  invalid %.0f  error %.0f  busy %.0f  "
        "exhausted %.0f  not_found %.0f\n",
        FindJsonNumber(*statusz, "window_ok"),
        FindJsonNumber(*statusz, "window_invalid"),
        FindJsonNumber(*statusz, "window_error"),
        FindJsonNumber(*statusz, "window_busy"),
        FindJsonNumber(*statusz, "window_exhausted"),
        FindJsonNumber(*statusz, "window_not_found"));
    std::printf(
        "liveness  conns %.0f/%.0f    inflight %.0f    cache hits %.0f "
        "(+%.0f)\n",
        FindJsonNumber(*statusz, "active_connections"),
        FindJsonNumber(*statusz, "max_connections"),
        FindJsonNumber(*statusz, "inflight"), cache_hits,
        prev_requests >= 0 ? cache_hits - prev_cache_hits : 0);
    std::printf(
        "log       slow %.0f captured    %.0f lines    %.0f dropped\n",
        FindJsonNumber(*statusz, "slow_captured"),
        FindJsonNumber(*statusz, "access_log_lines"),
        FindJsonNumber(*statusz, "access_log_dropped"));
    std::fflush(stdout);

    prev_requests = total_requests;
    prev_cache_hits = cache_hits;
    prev_time = now;
  }
  return 0;
}

int RunCommand(const std::vector<std::string>& argv, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  const int argc = static_cast<int>(argv.size());
  if (argc < 2) return Usage();
  std::string command = argv[1];

  auto load2 = [&](StatusOr<Edtd>* d1, StatusOr<Edtd>* d2) {
    *d1 = LoadSchema(argv[2], budget);
    *d2 = LoadSchema(argv[3], budget);
    return d1->ok() && d2->ok();
  };

  if (command == "validate" && argc >= 4) {
    return CmdValidate(argv, options);
  }
  if (command == "compile") return CmdCompile(argv, budget);
  if (command == "check" && argc == 3) return CmdCheck(argv[2], budget);
  if (command == "minimize" && argc == 3) {
    StatusOr<Edtd> schema = LoadSchema(argv[2], budget);
    if (!schema.ok()) return Fail(schema.status());
    Edtd reduced = ReduceEdtd(*schema);
    if (!IsSingleType(reduced)) {
      return Fail(InvalidArgumentError(
          "schema is not single-type; run 'approx' first"));
    }
    return PrintXsd(DfaXsdFromStEdtd(reduced), budget);
  }
  if (command == "approx" && argc == 3) {
    StatusOr<Edtd> schema = LoadSchema(argv[2], budget);
    if (!schema.ok()) return Fail(schema.status());
    StatusOr<DfaXsd> xsd = MinimalUpperApproximation(*schema, budget);
    if (!xsd.ok()) return Fail(xsd.status());
    return PrintXsd(*xsd, budget);
  }
  if ((command == "merge" || command == "intersect" || command == "diff" ||
       command == "lower" || command == "included") &&
      argc == 4) {
    StatusOr<Edtd> d1(InternalError("unset"));
    StatusOr<Edtd> d2(InternalError("unset"));
    if (!load2(&d1, &d2)) {
      return Fail(d1.ok() ? d2.status() : d1.status());
    }
    Edtd r1 = ReduceEdtd(*d1);
    Edtd r2 = ReduceEdtd(*d2);
    if (command == "included") {
      if (!IsSingleType(r2)) {
        return Fail(InvalidArgumentError(
            "the second schema must be single-type for the PTIME test"));
      }
      StatusOr<bool> included = IncludedInSingleType(r1, r2, nullptr, budget);
      if (!included.ok()) return Fail(included.status());
      std::cout << (*included ? "INCLUDED\n" : "NOT INCLUDED\n");
      return *included ? 0 : 1;
    }
    if (!IsSingleType(r1) || !IsSingleType(r2)) {
      return Fail(InvalidArgumentError(
          "both schemas must be single-type; run 'approx' on each first"));
    }
    if (command == "merge") {
      StatusOr<DfaXsd> result = UpperUnion(r1, r2, budget);
      if (!result.ok()) return Fail(result.status());
      return PrintXsd(*result, budget);
    }
    if (command == "intersect") {
      StatusOr<DfaXsd> result = UpperIntersection(r1, r2, nullptr, budget);
      if (!result.ok()) return Fail(result.status());
      return PrintXsd(*result, budget);
    }
    if (command == "diff") {
      StatusOr<DfaXsd> result = UpperDifference(r1, r2, nullptr, budget);
      if (!result.ok()) return Fail(result.status());
      return PrintXsd(*result, budget);
    }
    return PrintXsd(LowerUnionFixingFirst(r1, r2), budget);
  }
  if (command == "complement" && argc == 3) {
    StatusOr<Edtd> schema = LoadSchema(argv[2], budget);
    if (!schema.ok()) return Fail(schema.status());
    Edtd reduced = ReduceEdtd(*schema);
    if (!IsSingleType(reduced)) {
      return Fail(InvalidArgumentError(
          "schema must be single-type; run 'approx' first"));
    }
    StatusOr<DfaXsd> result = UpperComplement(reduced, nullptr, budget);
    if (!result.ok()) return Fail(result.status());
    return PrintXsd(*result, budget);
  }
  if (command == "sample" && (argc == 3 || argc == 4)) {
    int count = 1;
    if (argc == 4 && !ParseCount(argv[3], 1, 1000000, &count)) {
      return BadCount("sample count", argv[3], 1, 1000000);
    }
    return CmdSample(argv[2], count, budget);
  }
  if (command == "witness" && argc == 4) {
    StatusOr<Edtd> d1 = LoadSchema(argv[2], budget);
    if (!d1.ok()) return Fail(d1.status());
    StatusOr<Edtd> d2 = LoadSchema(argv[3], budget);
    if (!d2.ok()) return Fail(d2.status());
    Edtd r2 = ReduceEdtd(*d2);
    if (!IsSingleType(r2)) {
      return Fail(InvalidArgumentError(
          "the second schema must be single-type; run 'approx' first"));
    }
    std::optional<Tree> witness =
        XsdInclusionWitness(*d1, DfaXsdFromStEdtd(r2));
    if (!witness.has_value()) {
      std::cout << "INCLUDED (no witness)\n";
      return 0;
    }
    // Render over the merged alphabet the witness was built with.
    Alphabet merged = DfaXsdFromStEdtd(r2).sigma;
    for (int a = 0; a < d1->sigma.size(); ++a) {
      merged.Intern(d1->sigma.Name(a));
    }
    std::cout << ToXml(*witness, merged);
    return 1;
  }
  if (command == "report" && argc == 4) {
    StatusOr<Edtd> d1 = LoadSchema(argv[2], budget);
    if (!d1.ok()) return Fail(d1.status());
    StatusOr<Edtd> d2 = LoadSchema(argv[3], budget);
    if (!d2.ok()) return Fail(d2.status());
    Edtd r1 = ReduceEdtd(*d1);
    Edtd r2 = ReduceEdtd(*d2);
    if (!IsSingleType(r1) || !IsSingleType(r2)) {
      return Fail(InvalidArgumentError(
          "both schemas must be single-type; run 'approx' on each first"));
    }
    std::cout << CompareSchemas(r1, r2).ToString();
    return 0;
  }
  if (command == "types" && argc == 4) {
    StatusOr<Edtd> schema = LoadSchema(argv[2], budget);
    if (!schema.ok()) return Fail(schema.status());
    Edtd reduced = ReduceEdtd(*schema);
    StatusOr<std::string> xml = ReadFile(argv[3]);
    if (!xml.ok()) return Fail(xml.status());
    Alphabet alphabet = reduced.sigma;
    StatusOr<Tree> document = ParseXml(*xml, &alphabet);
    if (!document.ok()) return Fail(document.status());
    if (alphabet.size() != reduced.sigma.size()) {
      std::cout << "NO TYPING (undeclared elements)\n";
      return 1;
    }
    std::optional<Typing> typing = AssignTypesEdtd(reduced, *document);
    if (!typing.has_value()) {
      std::cout << "NO TYPING (document invalid)\n";
      return 1;
    }
    std::cout << typing->ToString(reduced, *document);
    int64_t count = CountTypings(reduced, *document);
    if (count > 1) {
      std::cout << "(ambiguous: " << count << " distinct typings)\n";
    }
    return 0;
  }
  if (command == "count" && argc == 5) {
    StatusOr<Edtd> schema = LoadSchema(argv[2], budget);
    if (!schema.ok()) return Fail(schema.status());
    Edtd reduced = ReduceEdtd(*schema);
    if (!IsSingleType(reduced)) {
      return Fail(InvalidArgumentError(
          "counting requires a single-type schema; run 'approx' first"));
    }
    CountBounds bounds;
    if (!ParseCount(argv[3], 1, 1000000, &bounds.max_depth)) {
      return BadCount("depth bound", argv[3], 1, 1000000);
    }
    if (!ParseCount(argv[4], 0, 1000000, &bounds.max_width)) {
      return BadCount("width bound", argv[4], 0, 1000000);
    }
    StatusOr<std::vector<CountValue>> counts =
        CountXsdByDepth(DfaXsdFromStEdtd(reduced), bounds, budget);
    if (!counts.ok()) return Fail(counts.status());
    std::cout << counts->back().ToDouble() << "\n";
    return 0;
  }
  if (command == "measure" && argc >= 3) return CmdMeasure(argv, budget);
  if (command == "export" && (argc == 3 || argc == 4)) {
    StatusOr<Edtd> schema = LoadSchema(argv[2], budget);
    if (!schema.ok()) return Fail(schema.status());
    Edtd reduced = ReduceEdtd(*schema);
    if (!IsSingleType(reduced)) {
      return Fail(InvalidArgumentError(
          "export requires a single-type schema; run 'approx' first"));
    }
    XsdExportOptions options;
    if (argc == 4) {
      if (std::string(argv[3]) != "--repair-upa") return Usage();
      options.repair_upa = true;
    }
    StatusOr<DfaXsd> minimized =
        MinimizeXsd(DfaXsdFromStEdtd(reduced), budget);
    if (!minimized.ok()) return Fail(minimized.status());
    std::cout << ExportXsd(*minimized, options);
    return 0;
  }
  if (command == "import" && argc == 3) {
    StatusOr<std::string> xml = ReadFile(argv[2]);
    if (!xml.ok()) return Fail(xml.status());
    StatusOr<Edtd> schema = ImportXsd(*xml, budget);
    if (!schema.ok()) return Fail(schema.status());
    std::cout << SchemaToText(ReduceEdtd(*schema));
    return 0;
  }
  if (command == "family" && (argc == 3 || argc == 4)) {
    const std::string& name = argv[2];
    int n = 1;
    if (argc == 4 && !ParseCount(argv[3], 1, 1000000, &n)) {
      return BadCount("family size", argv[3], 1, 1000000);
    }
    // The pair-valued families expose each member under an a/b suffix so
    // the result is always a single schema on stdout.
    Edtd schema;
    if (name == "theorem32") {
      schema = Theorem32Family(n);
    } else if (name == "theorem36a") {
      schema = Theorem36Family(n).first;
    } else if (name == "theorem36b") {
      schema = Theorem36Family(n).second;
    } else if (name == "theorem38a") {
      schema = Theorem38Family(n).first;
    } else if (name == "theorem38b") {
      schema = Theorem38Family(n).second;
    } else if (name == "theorem43a") {
      schema = Theorem43Schemas().first;
    } else if (name == "theorem43b") {
      schema = Theorem43Schemas().second;
    } else if (name == "theorem411") {
      schema = Theorem411Dtd();
    } else if (name == "counted") {
      schema = CountedFamily(n, 2 * n);
    } else {
      return Fail(InvalidArgumentError("unknown family '" + name + "'"));
    }
    std::cout << SchemaToText(schema);
    return 0;
  }
  if (command == "explain" && (argc == 3 || argc == 4)) {
    if (argc == 4 && argv[3] != "--schema-guided") return Usage();
    return CmdExplain(argv[2], argc == 4, options);
  }
  if (command == "serve") return CmdServe(argv);
  if (command == "top") return CmdTop(argv);
  return Usage();
}

int Run(int argc, char** argv) {
  GlobalOptions options;
  std::vector<std::string> args;
  args.push_back(argc > 0 ? argv[0] : "stap");
  if (!ParseGlobalFlags(argc, argv, &args, &options)) return Usage();
  if (options.trace) {
    options.session = std::make_unique<TraceSession>();
    options.session->Start();
    options.states_at_trace_start =
        GetCounter("determinize.states_created")->value();
  }
  const int code = RunCommand(args, options);
  return DumpTrace(options, DumpMetrics(options, code));
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) { return stap::Run(argc, argv); }
