// stap — command-line front end for the library.
//
// Every command is one row of kCommands (at the end of this file): its
// name, the bounds on its positional arguments, its help text and its
// handler. Usage() prints the table, and Run() dispatches from it.
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
// unless stated otherwise. Computed XSDs are printed in the same format
// by XsdToText, which minimizes them first.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "stap/approx/diff_report.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/lower_check.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/base/budget.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/count/counter.h"
#include "stap/count/measure.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/regex/bkw.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/typing.h"
#include "stap/schema/xsd_io.h"
#include "stap/serve/client.h"
#include "stap/serve/server.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

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
StatusOr<Edtd> LoadSchema(const std::string& path, Budget* budget) {
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
  // Registry values at session start, so `explain` can cross-check span
  // sums against counter deltas over the exact recording window.
  int64_t states_at_trace_start = 0;
  int64_t content_rules_at_trace_start = 0;

  Budget* budget_ptr() const { return budget.get(); }
};

// A command's positional arguments (everything after its name, global
// flags removed).
using Args = std::vector<std::string>;

int Usage();

// Checked decimal parse for counts and flag values: garbage, trailing
// junk and values outside [min_value, max_value] are rejected instead of
// silently becoming 0 the way std::atoi made them.
template <typename T>
bool ParseInt(const std::string& text, int64_t min_value, int64_t max_value,
              T* out) {
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < min_value || parsed > max_value) {
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

// Extracts the global --jobs/--budget-ms/--max-states/--max-sets/
// --metrics-json/--metrics-prom/--trace-json flags from anywhere on the
// command line; everything else passes through in order. Returns false on
// a malformed flag value.
bool ParseGlobalFlags(int argc, char** argv, Args* args,
                      GlobalOptions* options) {
  auto budget = [&]() -> Budget* {
    if (options->budget == nullptr) options->budget = std::make_unique<Budget>();
    return options->budget.get();
  };
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int64_t value = 0;
    if (arg.rfind("--budget-ms=", 0) == 0) {
      if (!ParseInt(arg.substr(12), 0, kMax, &value)) return false;
      budget()->set_deadline_ms(value);
    } else if (arg.rfind("--max-states=", 0) == 0) {
      if (!ParseInt(arg.substr(13), 0, kMax, &value)) return false;
      budget()->set_max_states(value);
    } else if (arg.rfind("--max-sets=", 0) == 0) {
      if (!ParseInt(arg.substr(11), 0, kMax, &value)) return false;
      budget()->set_max_sets(value);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!ParseInt(arg.substr(7), 0, 1024, &options->jobs)) return false;
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

// Loads and reduces (Proviso 2.3) a schema for a command that needs it
// single-type; otherwise fails with `not_single_type`, each command's own
// wording of the requirement.
StatusOr<Edtd> LoadSingleType(const std::string& path, Budget* budget,
                              const Status& not_single_type) {
  StatusOr<Edtd> schema = LoadSchema(path, budget);
  if (!schema.ok()) return schema.status();
  Edtd reduced = ReduceEdtd(*schema);
  if (!IsSingleType(reduced)) return not_single_type;
  return reduced;
}

// Loads a schema for the validation path: a compiled artifact is
// deserialized as-is; textual schemas compile through the process-wide
// content-model cache (so repeated invocations in one process — and the
// batch tests — share compilations).
StatusOr<CompiledSchema> LoadCompiledSchema(const std::string& path,
                                            Budget* budget) {
  StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (LooksLikeArtifact(*bytes)) return DeserializeArtifact(*bytes);
  return CompileSchema(*bytes, CompileCache::Global(), budget);
}

// Prints a computed XSD through the one printer, XsdToText.
int PrintXsd(const StatusOr<DfaXsd>& xsd, Budget* budget) {
  if (!xsd.ok()) return Fail(xsd.status());
  StatusOr<std::string> text = XsdToText(*xsd, budget);
  if (!text.ok()) return Fail(text.status());
  std::cout << *text;
  return 0;
}

// Runs `op` on the two schemas named by `args`, each reduced and
// required to be single-type.
template <typename Op>
int WithSingleTypePair(const Args& args, Budget* budget, Op op) {
  const Status not_single_type = InvalidArgumentError(
      "both schemas must be single-type; run 'approx' on each first");
  StatusOr<Edtd> r1 = LoadSingleType(args[0], budget, not_single_type);
  if (!r1.ok()) return Fail(r1.status());
  StatusOr<Edtd> r2 = LoadSingleType(args[1], budget, not_single_type);
  if (!r2.ok()) return Fail(r2.status());
  return op(*r1, *r2);
}

int CmdCompile(const Args& args, GlobalOptions& options) {
  if (args[1] != "-o") return Usage();
  StatusOr<std::string> text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  if (LooksLikeArtifact(*text)) {
    return Fail(InvalidArgumentError("'" + args[0] +
                                     "' is already a compiled artifact"));
  }
  StatusOr<CompiledSchema> schema =
      CompileSchema(*text, CompileCache::Global(), options.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());
  const std::string bytes = SerializeArtifact(*schema);
  std::ofstream out(args[2], std::ios::binary);
  if (!out || !(out << bytes) || !out.flush()) {
    return Fail(InternalError("cannot write artifact to '" + args[2] + "'"));
  }
  std::cout << "compiled " << args[0] << ": " << schema->edtd.num_types()
            << " types, single-type "
            << (schema->single_type ? "yes" : "no") << ", " << bytes.size()
            << " bytes -> " << args[2] << "\n";
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

int CmdValidate(const Args& args, GlobalOptions& options) {
  StatusOr<CompiledSchema> schema =
      LoadCompiledSchema(args[0], options.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());
  if (args.size() == 2 && options.jobs < 0) {
    return ValidateSingle(*schema, args[1], options.budget_ptr());
  }
  // Batch mode: one status line per document, in input order, plus a
  // summary — byte-identical output whatever the job count.
  std::vector<BatchDocument> documents;
  documents.reserve(args.size() - 1);
  for (size_t i = 1; i < args.size(); ++i) {
    BatchDocument doc;
    doc.name = args[i];
    StatusOr<std::string> xml = ReadFile(args[i]);
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

int CmdCheck(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> schema = LoadSchema(args[0], budget);
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

int CmdMinimize(const Args& args, GlobalOptions& options) {
  StatusOr<Edtd> reduced = LoadSingleType(
      args[0], options.budget_ptr(),
      InvalidArgumentError("schema is not single-type; run 'approx' first"));
  if (!reduced.ok()) return Fail(reduced.status());
  return PrintXsd(DfaXsdFromStEdtd(*reduced), options.budget_ptr());
}

int CmdApprox(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> schema = LoadSchema(args[0], budget);
  if (!schema.ok()) return Fail(schema.status());
  return PrintXsd(MinimalUpperApproximation(*schema, budget), budget);
}

int CmdMerge(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  return WithSingleTypePair(args, budget, [&](const Edtd& r1, const Edtd& r2) {
    return PrintXsd(UpperUnion(r1, r2, budget), budget);
  });
}

int CmdIntersect(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  return WithSingleTypePair(args, budget, [&](const Edtd& r1, const Edtd& r2) {
    return PrintXsd(UpperIntersection(r1, r2, nullptr, budget), budget);
  });
}

int CmdDiff(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  return WithSingleTypePair(args, budget, [&](const Edtd& r1, const Edtd& r2) {
    return PrintXsd(UpperDifference(r1, r2, nullptr, budget), budget);
  });
}

int CmdLower(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  return WithSingleTypePair(args, budget, [&](const Edtd& r1, const Edtd& r2) {
    return PrintXsd(LowerUnionFixingFirst(r1, r2, budget), budget);
  });
}

int CmdComplement(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> reduced = LoadSingleType(
      args[0], budget,
      InvalidArgumentError("schema must be single-type; run 'approx' first"));
  if (!reduced.ok()) return Fail(reduced.status());
  return PrintXsd(UpperComplement(*reduced, nullptr, budget), budget);
}

int CmdIncluded(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> d1 = LoadSchema(args[0], budget);
  if (!d1.ok()) return Fail(d1.status());
  StatusOr<Edtd> r2 = LoadSingleType(
      args[1], budget,
      InvalidArgumentError(
          "the second schema must be single-type for the PTIME test"));
  if (!r2.ok()) return Fail(r2.status());
  StatusOr<bool> included =
      IncludedInSingleType(ReduceEdtd(*d1), *r2, nullptr, budget);
  if (!included.ok()) return Fail(included.status());
  std::cout << (*included ? "INCLUDED\n" : "NOT INCLUDED\n");
  return *included ? 0 : 1;
}

int CmdWitness(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> d1 = LoadSchema(args[0], budget);
  if (!d1.ok()) return Fail(d1.status());
  StatusOr<Edtd> r2 = LoadSingleType(
      args[1], budget,
      InvalidArgumentError(
          "the second schema must be single-type; run 'approx' first"));
  if (!r2.ok()) return Fail(r2.status());
  // One alignment: xsd2's alphabet then covers every witness label.
  auto [r2_aligned, d1_aligned] = AlignAlphabets(*r2, *d1);
  const DfaXsd xsd2 = DfaXsdFromStEdtd(r2_aligned);
  StatusOr<std::optional<Tree>> witness =
      XsdInclusionWitness(d1_aligned, xsd2, nullptr, budget);
  if (!witness.ok()) return Fail(witness.status());
  if (!witness->has_value()) {
    std::cout << "INCLUDED (no witness)\n";
    return 0;
  }
  std::cout << ToXml(**witness, xsd2.sigma);
  return 1;
}

int CmdTypes(const Args& args, GlobalOptions& options) {
  StatusOr<Edtd> schema = LoadSchema(args[0], options.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());
  Edtd reduced = ReduceEdtd(*schema);
  StatusOr<std::string> xml = ReadFile(args[1]);
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

int CmdReport(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  return WithSingleTypePair(args, budget, [&](const Edtd& r1, const Edtd& r2) {
    StatusOr<SchemaDiffReport> report = CompareSchemas(r1, r2, budget);
    if (!report.ok()) return Fail(report.status());
    std::cout << report->ToString();
    return 0;
  });
}

int CmdSample(const Args& args, GlobalOptions& options) {
  int count = 1;
  if (args.size() == 2 && !ParseInt(args[1], 1, 1000000, &count)) {
    return BadCount("sample count", args[1], 1, 1000000);
  }
  StatusOr<Edtd> reduced = LoadSingleType(
      args[0], options.budget_ptr(),
      UnimplementedError(
          "sampling requires a single-type schema; run 'approx' first"));
  if (!reduced.ok()) return Fail(reduced.status());
  if (reduced->num_types() == 0) {
    return Fail(InvalidArgumentError("schema language is empty"));
  }
  DfaXsd xsd = DfaXsdFromStEdtd(*reduced);
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

int CmdCount(const Args& args, GlobalOptions& options) {
  StatusOr<Edtd> reduced = LoadSingleType(
      args[0], options.budget_ptr(),
      InvalidArgumentError(
          "counting requires a single-type schema; run 'approx' first"));
  if (!reduced.ok()) return Fail(reduced.status());
  CountBounds bounds;
  if (!ParseInt(args[1], 1, 1000000, &bounds.max_depth)) {
    return BadCount("depth bound", args[1], 1, 1000000);
  }
  if (!ParseInt(args[2], 0, 1000000, &bounds.max_width)) {
    return BadCount("width bound", args[2], 0, 1000000);
  }
  StatusOr<std::vector<CountValue>> counts = CountXsdByDepth(
      DfaXsdFromStEdtd(*reduced), bounds, options.budget_ptr());
  if (!counts.ok()) return Fail(counts.status());
  std::cout << counts->back().ToDouble() << "\n";
  return 0;
}

// `stap measure <schema> [--upper|--lower|--both] [--depth=D] [--width=W]
// [--json]`: exact precision analytics. Counts |L(S)|, |L(upper)|, and
// |L(lower)| by depth with the counting DP, plus the pairwise
// intersections, and reports the gained/lost document counts and the
// precision/recall ratios. Budget exhaustion surfaces as exit 3 via Fail.
int CmdMeasure(const Args& args, GlobalOptions& global) {
  MeasureOptions options;
  bool json = false;
  bool side_chosen = false;
  for (size_t i = 1; i < args.size(); ++i) {
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
      if (!ParseInt(flag.substr(8), 1, 64, &options.bounds.max_depth)) {
        return BadCount("depth bound", flag.substr(8), 1, 64);
      }
    } else if (flag.rfind("--width=", 0) == 0) {
      if (!ParseInt(flag.substr(8), 0, 64, &options.bounds.max_width)) {
        return BadCount("width bound", flag.substr(8), 0, 64);
      }
    } else {
      return Usage();
    }
  }
  StatusOr<Edtd> schema = LoadSchema(args[0], global.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());
  StatusOr<MeasureResult> result =
      MeasureSchema(*schema, options, global.budget_ptr());
  if (!result.ok()) return Fail(result.status());
  std::cout << (json ? result->ToJson() : result->ToText());
  if (json) std::cout << "\n";
  return 0;
}

int CmdExport(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> reduced = LoadSingleType(
      args[0], budget,
      InvalidArgumentError(
          "export requires a single-type schema; run 'approx' first"));
  if (!reduced.ok()) return Fail(reduced.status());
  XsdExportOptions export_options;
  if (args.size() == 2) {
    if (args[1] != "--repair-upa") return Usage();
    export_options.repair_upa = true;
  }
  StatusOr<DfaXsd> minimized = MinimizeXsd(DfaXsdFromStEdtd(*reduced), budget);
  if (!minimized.ok()) return Fail(minimized.status());
  StatusOr<std::string> xml = ExportXsd(*minimized, export_options, budget);
  if (!xml.ok()) return Fail(xml.status());
  std::cout << *xml;
  return 0;
}

int CmdImport(const Args& args, GlobalOptions& options) {
  StatusOr<std::string> xml = ReadFile(args[0]);
  if (!xml.ok()) return Fail(xml.status());
  StatusOr<Edtd> schema = ImportXsd(*xml, options.budget_ptr());
  if (!schema.ok()) return Fail(schema.status());
  std::cout << SchemaToText(ReduceEdtd(*schema));
  return 0;
}

int CmdFamily(const Args& args, GlobalOptions& /*options*/) {
  const std::string& name = args[0];
  int n = 1;
  if (args.size() == 2 && !ParseInt(args[1], 1, 1000000, &n)) {
    return BadCount("family size", args[1], 1, 1000000);
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

// Prints one `cross-check:` line: the registry delta of a counter over
// the recording window against the `arg` args summed over every `span`
// span (any depth). Both count the same events, so they must agree.
void PrintCrossCheck(const TraceSession& session, std::string_view counter,
                     int64_t registry_delta, std::string_view span,
                     std::string_view arg) {
  int64_t traced = 0;
  for (const TraceSession::PhaseRow& row :
       session.PhaseTable(/*max_depth=*/1 << 20)) {
    if (row.name != span) continue;
    for (const auto& [key, value] : row.int_args) {
      if (key == arg) traced += value;
    }
  }
  std::cout << "cross-check: " << counter << " +" << registry_delta
            << " (registry), " << traced << " (trace spans)"
            << (registry_delta == traced ? "" : "  MISMATCH") << "\n";
}

// `stap explain`: run what `stap approx` runs — the approximation and the
// printer — under a trace session and print the per-phase provenance
// rollup: each phase with call count, wall time, and the size counters
// its spans recorded. Reuses the global --trace-json session when one is
// active so the same recording also lands in the Chrome trace; otherwise
// records into a throwaway local session.
int CmdExplain(const Args& args, GlobalOptions& options) {
  Budget* const budget = options.budget_ptr();
  StatusOr<Edtd> schema = LoadSchema(args[0], budget);
  if (!schema.ok()) return Fail(schema.status());

  Counter* const determinize_states = GetCounter("determinize.states_created");
  Counter* const content_rules = GetCounter("approx.content_rules");
  TraceSession local;
  TraceSession* session = options.session.get();
  // The registry deltas are measured over the recording window, so they
  // are comparable to the span sums whichever session records.
  int64_t states_before = options.states_at_trace_start;
  int64_t rules_before = options.content_rules_at_trace_start;
  if (session == nullptr) {
    states_before = determinize_states->value();
    rules_before = content_rules->value();
    session = &local;
    local.Start();
  }

  StatusOr<DfaXsd> xsd = MinimalUpperApproximation(*schema, budget);
  StatusOr<std::string> text =
      xsd.ok() ? XsdToText(*xsd, budget) : xsd.status();
  if (session == &local) local.Stop();
  // The phase table is printed even when the budget ran out: seeing where
  // the states went is most valuable exactly then.
  std::cout << TraceSession::FormatPhaseTable(session->PhaseTable());
  // Subset-construction states, and Construction 3.1's content-rule calls
  // (one per distinct set of member images).
  PrintCrossCheck(*session, "determinize.states_created",
                  determinize_states->value() - states_before, "determinize",
                  "states_created");
  PrintCrossCheck(*session, "approx.content_rules",
                  content_rules->value() - rules_before,
                  "upper.merge_contents", "content_rules");
  if (!text.ok()) return Fail(text.status());
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
int CmdServe(const Args& args, GlobalOptions& /*global*/) {
  ServeOptions options;
  for (const std::string& arg : args) {
    if (arg.rfind("--port=", 0) == 0) {
      if (!ParseInt(arg.substr(7), 0, 65535, &options.port)) return Usage();
    } else if (arg.rfind("--schemas=", 0) == 0) {
      options.schema_dir = arg.substr(10);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      if (!ParseInt(arg.substr(18), 1, 4096, &options.max_connections)) {
        return Usage();
      }
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      if (!ParseInt(arg.substr(15), 0, 4096, &options.max_inflight)) {
        return Usage();
      }
    } else if (arg.rfind("--request-budget-ms=", 0) == 0) {
      if (!ParseInt(arg.substr(20), 0, 86400000,
                    &options.request_budget_ms)) {
        return Usage();
      }
    } else if (arg.rfind("--request-max-states=", 0) == 0) {
      if (!ParseInt(arg.substr(21), 0, 1000000000,
                    &options.request_max_states)) {
        return Usage();
      }
    } else if (arg.rfind("--request-max-sets=", 0) == 0) {
      if (!ParseInt(arg.substr(19), 0, 1000000000,
                    &options.request_max_sets)) {
        return Usage();
      }
    } else if (arg.rfind("--access-log=", 0) == 0) {
      options.access_log_path = arg.substr(13);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      if (!ParseInt(arg.substr(10), 0, 86400000, &options.slow_request_ms)) {
        return Usage();
      }
    } else if (arg.rfind("--log-ring=", 0) == 0) {
      if (!ParseInt(arg.substr(11), 1, 1000000, &options.access_log_ring)) {
        return Usage();
      }
    } else if (arg.rfind("--slow-ring=", 0) == 0) {
      if (!ParseInt(arg.substr(12), 1, 1000000, &options.slow_ring)) {
        return Usage();
      }
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
int CmdTop(const Args& args, GlobalOptions& /*global*/) {
  std::string host = "127.0.0.1";
  int port = 0;
  int64_t interval_ms = 1000;
  int64_t count = 0;
  for (const std::string& arg : args) {
    if (arg.rfind("--port=", 0) == 0) {
      if (!ParseInt(arg.substr(7), 1, 65535, &port)) return Usage();
    } else if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--interval-ms=", 0) == 0) {
      if (!ParseInt(arg.substr(14), 10, 3600000, &interval_ms)) {
        return Usage();
      }
    } else if (arg.rfind("--count=", 0) == 0) {
      if (!ParseInt(arg.substr(8), 0, 1000000000, &count)) return Usage();
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
    StatusOr<std::string> statusz = HttpGetBody(host, port, "/statusz");
    if (!statusz.ok()) return Fail(statusz.status());
    StatusOr<std::string> metrics = HttpGetBody(host, port, "/metrics");
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
                host.c_str(), port, FindJsonNumber(*statusz, "uptime_s"),
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

// One row per command. `synopsis` follows the name on the first help
// line; `help` is printed from column 32 (or two spaces after a longer
// synopsis) and its continuation lines carry their own indentation.
struct Command {
  const char* name;
  size_t min_args;
  size_t max_args;
  const char* synopsis;
  const char* help;
  int (*run)(const Args& args, GlobalOptions& options);
};

constexpr size_t kAnyCount = std::numeric_limits<size_t>::max();

constexpr Command kCommands[] = {
    {"validate", 2, kAnyCount, "<schema> <doc...>",
     "validate documents (schema text or\n"
     "                                compiled artifact; many docs fan\n"
     "                                out over --jobs=N threads)\n",
     CmdValidate},
    {"compile", 3, 3, "<schema> -o <file>",
     "compile a schema to an artifact\n", CmdCompile},
    {"check", 1, 1, "<schema>", "report schema properties\n", CmdCheck},
    {"minimize", 1, 1, "<schema>", "canonical minimal XSD\n", CmdMinimize},
    {"approx", 1, 1, "<schema>", "minimal upper XSD-approximation\n",
     CmdApprox},
    {"merge", 2, 2, "<s1> <s2>", "upper approximation of the union\n",
     CmdMerge},
    {"intersect", 2, 2, "<s1> <s2>", "exact intersection\n", CmdIntersect},
    {"diff", 2, 2, "<s1> <s2>", "upper approximation of s1 \\ s2\n",
     CmdDiff},
    {"complement", 1, 1, "<schema>", "upper approx of the complement\n",
     CmdComplement},
    {"lower", 2, 2, "<s1> <s2>", "maximal lower approx of the union\n",
     CmdLower},
    {"included", 2, 2, "<s1> <s2>", "L(s1) subset of L(s2)?\n", CmdIncluded},
    {"witness", 2, 2, "<s1> <s2>", "a document in L(s1) \\ L(s2)\n",
     CmdWitness},
    {"types", 2, 2, "<schema> <doc.xml>", "print the document's typing\n",
     CmdTypes},
    {"report", 2, 2, "<s1> <s2>", "full comparison report\n", CmdReport},
    {"sample", 1, 2, "<schema> [count]", "sample random documents\n",
     CmdSample},
    {"count", 3, 3, "<schema> <depth> <w>", "count documents within bounds\n",
     CmdCount},
    {"measure", 1, kAnyCount, "<schema> [flags]",
     "tree-counting precision report:\n"
     "                                exact |L(S)|, |L(upper)\\L(S)|,\n"
     "                                |L(S)\\L(lower)| per depth; flags:\n"
     "                                --upper --lower --both (default)\n"
     "                                --depth=D --width=W --json\n",
     CmdMeasure},
    {"export", 1, 2, "<schema> [--repair-upa]", "write a W3C-style .xsd\n",
     CmdExport},
    {"import", 1, 1, "<schema.xsd>", "read a W3C-style .xsd\n", CmdImport},
    {"family", 1, 2, "<name> <n>",
     "generate a lower-bound family\n"
     "                                (theorem32, theorem36a/b,\n"
     "                                theorem38a/b, theorem43a/b,\n"
     "                                theorem411, counted;\n"
     "                                43/411 ignore n, counted uses\n"
     "                                Item{n,2n})\n",
     CmdFamily},
    {"explain", 1, 1, "<schema>",
     "approximate and print a per-phase\n"
     "                                provenance table\n",
     CmdExplain},
    {"serve", 0, kAnyCount, "[flags]",
     "validation daemon; flags:\n"
     "                                --port=N (0 = ephemeral)\n"
     "                                --schemas=DIR (*.stapc/*.stap)\n"
     "                                --max-connections=N\n"
     "                                --max-inflight=N\n"
     "                                --request-budget-ms=N\n"
     "                                --request-max-states=N\n"
     "                                --request-max-sets=N\n"
     "                                --access-log=FILE (JSONL)\n"
     "                                --slow-ms=N (slow-request capture)\n"
     "                                --log-ring=N --slow-ring=N\n",
     CmdServe},
    {"top", 0, kAnyCount, "--port=N [--host=H]",
     "live one-screen view of a serve\n"
     "      [--interval-ms=N]         daemon (/statusz + /metrics):\n"
     "      [--count=N]               qps, p50/p99, error rates, cache\n",
     CmdTop},
};

int Usage() {
  std::cerr << "usage: stap <command> <args>\n";
  for (const Command& command : kCommands) {
    std::string line =
        "  " + std::string(command.name) + " " + command.synopsis;
    line.resize(std::max<size_t>(line.size() + 2, 32), ' ');
    std::cerr << line << command.help;
  }
  std::cerr
      << "global flags: --jobs=N --budget-ms=N --max-states=N --max-sets=N\n"
         "              --metrics-json[=file] --metrics-prom[=file]\n"
         "              --trace-json[=file]  (exit 3 = budget exhausted)\n"
         "schema arguments accept the textual format (docs/FORMAT.md) or a\n"
         "W3C .xsd document (auto-detected by a leading '<')\n";
  return 2;
}

int RunCommand(const Args& argv, GlobalOptions& options) {
  if (argv.empty()) return Usage();
  const Args args(argv.begin() + 1, argv.end());
  for (const Command& command : kCommands) {
    if (argv[0] != command.name) continue;
    if (args.size() < command.min_args || args.size() > command.max_args) {
      return Usage();
    }
    return command.run(args, options);
  }
  return Usage();
}

int Run(int argc, char** argv) {
  GlobalOptions options;
  Args args;  // the command name, then its positional arguments
  if (!ParseGlobalFlags(argc, argv, &args, &options)) return Usage();
  if (options.trace) {
    options.session = std::make_unique<TraceSession>();
    options.session->Start();
    options.states_at_trace_start =
        GetCounter("determinize.states_created")->value();
    options.content_rules_at_trace_start =
        GetCounter("approx.content_rules")->value();
  }
  const int code = RunCommand(args, options);
  return DumpTrace(options, DumpMetrics(options, code));
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) { return stap::Run(argc, argv); }
