#include "common.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Fingerprint::Add(std::string_view bytes) {
  const std::string length = std::to_string(bytes.size()) + ":";
  for (std::string_view part : {std::string_view(length), bytes}) {
    for (unsigned char c : part) {
      hash_ ^= c;
      hash_ *= 1099511628211ull;
    }
  }
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[span.parent] += (span.end_ns - span.start_ns) * 1e-3;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double us = (spans_[i].end_ns - spans_[i].start_ns) * 1e-3;
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_us += us;
    t.self_us += us - child_us[i];
  }
  return totals;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "perfbench: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

namespace {
const double kLogGrowth = std::log(1.002);
}  // namespace

void LatencyHistogram::Record(double us) {
  const int bucket =
      us <= 1 ? 0
              : std::min(kBuckets - 1, static_cast<int>(std::log(us) / kLogGrowth));
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  int64_t below = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (below + buckets_[i] >= rank) {
      const double fraction = (rank - below) / buckets_[i];
      return std::exp((i + fraction) * kLogGrowth);
    }
    below += buckets_[i];
  }
  return std::exp(kBuckets * kLogGrowth);
}

WindowStats PassLog::Summarize() const {
  WindowStats stats;
  std::vector<double> medians;
  for (const std::vector<double>& input : latencies_us) {
    std::vector<double> scaled;
    for (size_t pass = 0; pass < input.size(); ++pass) {
      scaled.push_back(input[pass] / slowness[pass]);
    }
    medians.push_back(Median(scaled));
    stats.samples += static_cast<int64_t>(input.size());
  }
  std::vector<double> scaled_seconds;
  for (size_t pass = 0; pass < pass_seconds.size(); ++pass) {
    scaled_seconds.push_back(pass_seconds[pass] / slowness[pass]);
  }
  stats.ops_per_s = latencies_us.size() / Median(scaled_seconds);
  stats.p50_us = Quantile(medians, 0.50);
  stats.p90_us = Quantile(medians, 0.90);
  stats.p99_us = Quantile(medians, 0.99);
  return stats;
}

void ReportTracingOverhead(const WindowStats& untraced,
                           const WindowStats& traced, Report* report) {
  report->notes.push_back(
      "untraced half: p50 " + std::to_string(untraced.p50_us) + " us, " +
      "traced half: p50 " + std::to_string(traced.p50_us) + " us (" +
      std::to_string(untraced.samples) + " / " +
      std::to_string(traced.samples) + " samples)");
  report->AddLayer("trace.overhead_p50", traced.p50_us / untraced.p50_us,
                   "ratio");
  report->AddLayer("trace.p99_us", untraced.p99_us, "us");
}

namespace {
// The reference kernel's time on a nominal machine.
constexpr double kNominalReferenceMs = 6.0;
uint64_t reference_sink = 0;
}  // namespace

void Speedometer::Sample() {
  const int64_t start_ns = NowNs();
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<uint64_t> keys(20000);
  for (uint64_t& key : keys) {
    key = next();
    map[key] = key >> 3;
  }
  uint64_t sum = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t key : keys) sum += map[key];
  }
  std::vector<uint32_t> values(50000);
  for (uint32_t& value : values) value = static_cast<uint32_t>(next());
  std::sort(values.begin(), values.end());
  std::vector<std::vector<int>> small;
  for (int i = 0; i < 10000; ++i) small.emplace_back(i % 7 + 1, i);
  for (const std::vector<int>& v : small) sum += v.size();
  reference_sink += sum + values[values.size() / 2];
  samples_ms_.push_back((NowNs() - start_ns) * 1e-6);
}

double Speedometer::last() const {
  return samples_ms_.back() / kNominalReferenceMs;
}

double Speedometer::slowness() const {
  return Median(samples_ms_) / kNominalReferenceMs;
}

void ReportEndToEnd(const std::vector<double>& setup_seconds,
                    const WindowStats& window, const Speedometer& speed,
                    Report* report) {
  report->notes.push_back(std::to_string(window.samples) +
                          " latency samples, " +
                          std::to_string(setup_seconds.size()) + " set-ups");
  const double slowness = speed.slowness();
  report->notes.push_back("machine slowness " + std::to_string(slowness) +
                          " (median), set-up as measured " +
                          std::to_string(Median(setup_seconds)) + " s");
  report->AddEndToEnd("setup_s", Median(setup_seconds) / slowness, "s");
  report->AddEndToEnd("ops_per_s", window.ops_per_s, "1/s");
  report->AddEndToEnd("p50_us", window.p50_us, "us");
  report->AddEndToEnd("p90_us", window.p90_us, "us");
  report->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
