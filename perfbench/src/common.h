// Shared plumbing for the stap benchmark driver: options, the run report,
// clocks, order statistics, peak memory, input fingerprints, and the span
// recorder the traced run uses around calls into each libstap layer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Planted faults for the benchmark's own tests: "verdict" flips one
  // expected validation verdict, "states" corrupts one expected state
  // count. Either must make the run fail.
  std::string plant;
  // When set, approx_corpus writes its reference outputs here.
  std::string dump_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run measured and whether its outputs were right.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for stderr
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // sample counts and context, stderr only

  void Fail(std::string message) {
    ++failed;
    if (failures.size() < 10) failures.push_back(std::move(message));
  }
  // Adds another report's op counts and failures (a worker's, say).
  void Absorb(const Report& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& failure : other.failures) {
      if (failures.size() < 10) failures.push_back(failure);
    }
  }
  void AddEndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void AddLayer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// FNV-1a over a stream of byte strings: the fingerprint of a run's
// generated inputs. Each piece is length-prefixed so boundaries count.
class Fingerprint {
 public:
  void Add(std::string_view bytes);
  void Add(int64_t value) { Add(std::to_string(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// An in-memory span recorder, one per thread. Spans nest by call order:
// a span opened while another is open becomes its child, which is how
// self time (duration minus children) is derived.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  // index into spans_, -1 at the root
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Totals {
    int64_t count = 0;
    double total_us = 0;
    double self_us = 0;
    double mean_us() const { return count == 0 ? 0 : total_us / count; }
  };

  int Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, NowNs(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int span) {
    spans_[span].end_ns = NowNs();
    open_.pop_back();
  }

  // Per span name: count, summed duration, summed self time.
  std::map<std::string, Totals> Summarize() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on `tracer` for the enclosing scope; a null tracer makes
// this a no-op, so the untraced and traced runs execute the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Log-bucketed latency histogram: constant memory whatever the sample
// count (so it does not move peak_rss_mb), 0.2% resolution from 1 us to
// about 13 s.
class LatencyHistogram {
 public:
  void Record(double us);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  // Interpolated within the bucket; 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kBuckets = 8192;
  std::vector<int64_t> buckets_ = std::vector<int64_t>(kBuckets);
  int64_t count_ = 0;
};

// What one timed window measured. Each figure is a median over parts of
// the window (time slices, or passes and inputs), so that a burst of
// interference from outside the process moves it little.
struct WindowStats {
  double ops_per_s = 0;
  int64_t samples = 0;  // latency samples behind the quantiles
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

// The passes of a window over a fixed input set, possibly spread over
// several rounds of a run. Summarize() gives ops/s from the median pass
// time, and latency quantiles over the inputs' median latencies (each
// input runs once per pass, so these estimate the per-op quantiles).
// Each pass's times are first divided by the machine slowness sampled
// right after it (1 when unscaled).
struct PassLog {
  explicit PassLog(size_t inputs) : latencies_us(inputs) {}
  std::vector<std::vector<double>> latencies_us;  // per input, per pass
  std::vector<double> pass_seconds;
  std::vector<double> slowness;  // per pass
  WindowStats Summarize() const;
};

// Measures how fast the machine runs right now, with a fixed reference
// kernel of the benchmark's own that does the kind of work libstap does
// (hash-map inserts and lookups, a sort, many small allocations) but
// calls no libstap code. Workloads sample it between passes or loop
// windows across the whole run; slowness() is the median sample over the
// kernel's nominal time, above 1 when the machine runs slower than
// nominal. The kernel must never change: that would rescale every
// end-to-end metric.
class Speedometer {
 public:
  void Sample();
  // The last sample's slowness, and the median over all samples.
  double last() const;
  double slowness() const;

 private:
  std::vector<double> samples_ms_;
};

// Reports the traced/untraced p50 ratio and the untraced p99 of the
// split window of a traced run.
void ReportTracingOverhead(const WindowStats& untraced,
                           const WindowStats& traced, Report* report);

// Reports the end-to-end metrics of an untraced run, whose window the
// caller has already scaled to the nominal machine speed; setup_s is the
// median of the run's set-ups, scaled by the run's median slowness.
void ReportEndToEnd(const std::vector<double>& setup_seconds,
                    const WindowStats& window, const Speedometer& speed,
                    Report* report);

// Reads a whole file; aborts the run (exit 2) when it cannot.
std::string ReadFileOrDie(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
