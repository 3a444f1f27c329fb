// stap_perfbench: drives libstap in-process on one seeded workload and
// prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones. A human-readable table goes to stderr. The exit
// code is 1 when any output check failed.
//
// Usage: stap_perfbench --workload serve_small|batch_large|approx_corpus
//            --seed N --seconds S --trace 0|1
//            [--plant verdict|states] [--dump FILE]
// Run it from the repository root: it reads perfbench/corpus/.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: stap_perfbench --workload "
               "serve_small|batch_large|approx_corpus --seed N --seconds S "
               "--trace 0|1 [--plant verdict|states] [--dump FILE]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--plant") {
      if (value != "verdict" && value != "states") return false;
      options->plant = value;
    } else if (flag == "--dump") {
      options->dump_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();

  Report report;
  if (options.workload == "serve_small") {
    RunServeSmall(options, &report);
  } else if (options.workload == "batch_large") {
    RunBatchLarge(options, &report);
  } else if (options.workload == "approx_corpus") {
    RunApproxCorpus(options, &report);
  } else {
    return Usage();
  }
  if (options.trace) {
    ServeLayers(options, &report);
    DocumentLayers(options, &report);
    ApproxLayers(options, &report);
  }

  const double error_rate =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) / report.attempted;
  std::fprintf(stderr, "workload %s seed %llu trace %d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  PrintTable("end-to-end:", report.end_to_end);
  PrintTable("per-layer:", report.per_layer);
  std::fprintf(stderr, "  %-32s %14.6f (%lld failed of %lld attempted)\n",
               "error_rate", error_rate, static_cast<long long>(report.failed),
               static_cast<long long>(report.attempted));
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  const std::vector<Metric>& metrics =
      options.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
