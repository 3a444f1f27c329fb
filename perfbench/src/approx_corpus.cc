// approx_corpus: one op is one schema through what `stap approx` and then
// `stap measure` run. The timed window is a whole number of passes over
// the corpus. See NOTES.md for why this shape.
#include <fstream>
#include <random>

#include "common.h"
#include "inputs.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/base/metrics.h"
#include "stap/count/measure.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/minimize.h"
#include "stap/schema/text_format.h"
#include "stap/schema/xsd_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kRounds = 5;  // set-up + a share of the window, each
constexpr int kFamilyMin = 5;  // Theorem32Family(n), n = 5..8
constexpr int kFamilyMax = 8;
constexpr int kRandomSchemas = 8;
constexpr int64_t kRandomMaxSize = 40;  // Edtd::Size()
constexpr size_t kExamples = 9;
constexpr size_t kFamilies = kFamilyMax - kFamilyMin + 1;
constexpr int kLayerPasses = 2;

struct ApproxInput {
  std::string name;
  std::string text;  // textual format, or W3C XSD
  int theorem32_n = 0;
};

struct ApproxInputs {
  std::vector<ApproxInput> inputs;
  uint64_t fingerprint = 0;
};

ApproxInputs MakeApproxInputs(const Options& options) {
  ApproxInputs in;
  for (SchemaSource& source : ExampleSchemas()) {
    in.inputs.push_back({source.name, std::move(source.text), 0});
  }
  for (int n = kFamilyMin; n <= kFamilyMax; ++n) {
    in.inputs.push_back({"theorem32_" + std::to_string(n),
                         stap::SchemaToText(stap::Theorem32Family(n)), n});
  }
  std::mt19937 rng(static_cast<uint32_t>(options.seed) ^ 0xa991'0c0du);
  // Small random schemas with counted content models r{n,m}. Their size
  // cap keeps every one of them cheaper than the corpus's median op, so
  // the seed moves which schemas run but not where p50 and p90 fall.
  stap::RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.repeat_percent = 30;
  while (in.inputs.size() < kExamples + kFamilies + kRandomSchemas) {
    stap::Edtd edtd = stap::RandomEdtd(&rng, params);
    if (edtd.Size() > kRandomMaxSize) continue;
    in.inputs.push_back(
        {"random_" + std::to_string(in.inputs.size() - kExamples - kFamilies),
         stap::SchemaToText(edtd), 0});
  }
  Fingerprint fingerprint;
  for (const ApproxInput& input : in.inputs) fingerprint.Add(input.text);
  in.fingerprint = fingerprint.value();
  return in;
}

// Everything one op produced: kept from the reference pass for the
// output checks, and reduced to `output` on every other pass.
struct OpResult {
  stap::Status status;
  stap::Edtd edtd;
  stap::DfaXsd upper;
  stap::DfaXsd minimized;
  std::string text;
  stap::MeasureResult measure;
  std::string output() const { return text + measure.ToJson() + "\n"; }
};

void RunOp(const ApproxInput& input, Tracer* tracer, OpResult* result) {
  ScopedSpan op_span(tracer, "approx.op");
  stap::StatusOr<stap::Edtd> edtd = [&] {
    ScopedSpan span(tracer, "schema.parse");
    return stap::LooksLikeXml(input.text)
               ? stap::ImportXsd(input.text)
               : stap::ParseSchema(input.text, /*cache=*/nullptr);
  }();
  if (!edtd.ok()) {
    result->status = edtd.status();
    return;
  }
  result->edtd = std::move(*edtd);
  {
    ScopedSpan span(tracer, "approx.upper");
    result->upper = stap::MinimalUpperApproximation(result->edtd);
  }
  {
    ScopedSpan span(tracer, "schema.minimize_xsd");
    result->minimized = stap::MinimizeXsd(result->upper);
  }
  stap::Edtd st;
  {
    ScopedSpan span(tracer, "schema.to_st_edtd");
    st = stap::StEdtdFromDfaXsd(result->minimized);
  }
  {
    ScopedSpan span(tracer, "schema.print");
    result->text = stap::SchemaToText(st);
  }
  stap::StatusOr<stap::MeasureResult> measure = [&] {
    ScopedSpan span(tracer, "count.measure");
    return stap::MeasureSchema(result->edtd, stap::MeasureOptions{}, nullptr);
  }();
  if (!measure.ok()) {
    result->status = measure.status();
    return;
  }
  result->measure = std::move(*measure);
}

// The output checks, none of which trusts the code under test to grade
// itself: Lemma 3.3 soundness L(input) ⊆ L(upper) by the PTIME inclusion
// test, the count sandwich |upper| >= |schema| >= |lower| at every depth,
// and Theorem 3.2's closed form of 2^(n+1)+1 XSD states.
std::string CheckOutput(const ApproxInput& input, const OpResult& result,
                        const Options& options) {
  if (!result.status.ok()) return result.status.ToString();
  if (!stap::EdtdIncludedInXsd(result.edtd, result.upper)) {
    return "input not included in its upper approximation";
  }
  const stap::MeasureResult& m = result.measure;
  for (size_t d = 0; d < m.schema.size(); ++d) {
    if (m.has_upper &&
        stap::CountValue::Compare(m.upper[d], m.schema[d]) < 0) {
      return "upper count below schema count at depth " +
             std::to_string(d + 1);
    }
    if (m.has_lower &&
        stap::CountValue::Compare(m.schema[d], m.lower[d]) < 0) {
      return "lower count above schema count at depth " +
             std::to_string(d + 1);
    }
  }
  if (input.theorem32_n > 0) {
    int expected = (1 << (input.theorem32_n + 1)) + 1;
    if (options.plant == "states") ++expected;
    const int states = result.minimized.automaton.num_states();
    if (states != expected) {
      return std::to_string(states) + " XSD states, expected " +
             std::to_string(expected);
    }
  }
  return "";
}

// Runs passes and checks every op. The first pass ever run is the
// reference: its outputs are checked in full, and every later op must
// reproduce its input's reference output byte for byte.
class Runner {
 public:
  Runner(const ApproxInputs& in, const Options& options, Report* report)
      : in_(in), options_(options), report_(report) {}

  // Whole passes until `seconds` have elapsed (one pass when 0), logged
  // into `log` when it is not null.
  void RunPasses(double seconds, Tracer* tracer, PassLog* log,
                 Speedometer* speed = nullptr) {
    const int64_t start_ns = NowNs();
    do {
      const int64_t pass_start_ns = NowNs();
      for (size_t i = 0; i < in_.inputs.size(); ++i) {
        OpResult result;
        const int64_t op_start_ns = NowNs();
        RunOp(in_.inputs[i], tracer, &result);
        const double us = (NowNs() - op_start_ns) * 1e-3;
        if (log != nullptr) log->latencies_us[i].push_back(us);
        Check(i, result);
      }
      if (speed != nullptr) speed->Sample();
      if (log != nullptr) {
        log->pass_seconds.push_back(SecondsSince(pass_start_ns));
        log->slowness.push_back(speed != nullptr ? speed->last() : 1.0);
      }
    } while (SecondsSince(start_ns) < seconds);
  }

  // The reference outputs, one per input, once a pass has run.
  const std::vector<std::string>& reference() const { return reference_; }

 private:
  void Check(size_t i, const OpResult& result) {
    ++report_->attempted;
    const ApproxInput& input = in_.inputs[i];
    if (reference_.size() < in_.inputs.size()) {
      std::string error = CheckOutput(input, result, options_);
      if (!error.empty()) report_->Fail(input.name + ": " + error);
      reference_.push_back(result.output());
      return;
    }
    if (!result.status.ok() || result.output() != reference_[i]) {
      report_->Fail(input.name + ": output differs from the reference pass");
    }
  }

  const ApproxInputs& in_;
  const Options& options_;
  Report* report_;
  std::vector<std::string> reference_;
};

}  // namespace

void RunApproxCorpus(const Options& options, Report* report) {
  const ApproxInputs in = MakeApproxInputs(options);
  report->notes.push_back("inputs " + std::to_string(in.fingerprint) + ", " +
                          std::to_string(in.inputs.size()) + " ops per pass");
  Runner runner(in, options, report);
  // Set-up is one warm-up pass (parsing is part of every op).
  std::vector<double> setup_seconds;
  auto set_up = [&] {
    const int64_t start_ns = NowNs();
    runner.RunPasses(0, nullptr, nullptr);
    setup_seconds.push_back(SecondsSince(start_ns));
  };
  set_up();
  if (!options.dump_path.empty()) {
    std::ofstream dump(options.dump_path);
    for (size_t i = 0; i < in.inputs.size(); ++i) {
      dump << "== " << in.inputs[i].name << "\n" << runner.reference()[i];
    }
  }
  if (!options.trace) {
    PassLog log(in.inputs.size());
    Speedometer speed;
    for (int round = 0; round < kRounds; ++round) {
      if (round > 0) set_up();
      runner.RunPasses(options.seconds / kRounds, nullptr, &log, &speed);
    }
    ReportEndToEnd(setup_seconds, log.Summarize(), speed, report);
    return;
  }
  PassLog untraced(in.inputs.size());
  runner.RunPasses(options.seconds / 2, nullptr, &untraced);
  Tracer tracer;
  PassLog traced(in.inputs.size());
  runner.RunPasses(options.seconds / 2, &tracer, &traced);
  ReportTracingOverhead(untraced.Summarize(), traced.Summarize(), report);
}

// Per-layer metrics of the pipeline, from traced passes over the corpus:
// every call an op makes into a layer is its own span under the op span.
void ApproxLayers(const Options& options, Report* report) {
  const ApproxInputs in = MakeApproxInputs(options);
  Runner runner(in, options, report);
  runner.RunPasses(0, nullptr, nullptr);  // warm-up and reference pass

  stap::Counter* const determinize_states =
      stap::GetCounter("determinize.states_created");
  const int64_t states_before = determinize_states->value();
  Tracer tracer;
  for (int pass = 0; pass < kLayerPasses; ++pass) {
    runner.RunPasses(0, &tracer, nullptr);
  }
  const int64_t states_created = determinize_states->value() - states_before;

  // Output sizes, from one more untraced pass.
  double xsd_states = 0;
  double minimized_states = 0;
  double print_bytes = 0;
  for (const ApproxInput& input : in.inputs) {
    OpResult result;
    RunOp(input, nullptr, &result);
    xsd_states += result.upper.automaton.num_states();
    minimized_states += result.minimized.automaton.num_states();
    print_bytes += result.text.size();
  }
  const double ops = static_cast<double>(in.inputs.size());

  std::map<std::string, Tracer::Totals> totals = tracer.Summarize();
  const auto ms = [&](const char* name) {
    return totals[name].mean_us() * 1e-3;
  };
  report->AddLayer("schema.parse_ms", ms("schema.parse"), "ms");
  report->AddLayer("approx.upper_ms", ms("approx.upper"), "ms");
  report->AddLayer("approx.xsd_states", xsd_states / ops, "count");
  report->AddLayer("automata.determinize_states",
                   states_created / (ops * kLayerPasses), "count");
  report->AddLayer("schema.minimize_xsd_ms", ms("schema.minimize_xsd"), "ms");
  report->AddLayer("schema.minimized_states", minimized_states / ops, "count");
  report->AddLayer("schema.to_st_edtd_ms", ms("schema.to_st_edtd"), "ms");
  report->AddLayer("schema.print_ms", ms("schema.print"), "ms");
  report->AddLayer("schema.print_bytes", print_bytes / ops, "bytes");
  report->AddLayer("count.measure_ms", ms("count.measure"), "ms");
  const Tracer::Totals& op = totals["approx.op"];
  report->AddLayer("trace.approx_coverage",
                   (op.total_us - op.self_us) / op.total_us, "ratio");
}

}  // namespace perfbench
