// serve_small: an in-process stap Server on loopback, driven by a closed
// loop of small validation requests. See NOTES.md for why this shape.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <latch>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "inputs.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/io/batch_validate.h"
#include "stap/serve/client.h"
#include "stap/serve/protocol.h"
#include "stap/serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stap::ResponseCode;

constexpr int kConnections = 2;
constexpr int kWindow = 4;  // requests in flight per connection
constexpr int kPoolSize = 4096;
constexpr int kInlinePercent = 2;
constexpr int kInvalidPercent = 10;
constexpr int kInlinePool = 4;  // the first four example schemas
constexpr int64_t kSwapEvery = 1000;
constexpr int64_t kWarmupRequests = 30000;
constexpr int kRounds = 5;  // set-up + a share of the window, each
constexpr double kSliceSeconds = 0.5;
// Each round's window is cut into parts with a machine-speed sample
// between them, since the loop's threads would disturb a sample taken
// beside them.
constexpr int kPartsPerRound = 4;
constexpr double kLayerLoopSeconds = 1.0;
constexpr int kReplayPasses = 2;

struct ServeInputs {
  std::vector<SchemaSource> schemas;  // registered as "@<name>"
  std::vector<std::string> frames;    // encoded requests; id = index + 1
  std::vector<bool> valid;            // the verdict fixed at generation
  uint64_t fingerprint = 0;
};

ServeInputs MakeServeInputs(const Options& options) {
  ServeInputs in;
  in.schemas = ExampleSchemas();
  std::vector<std::shared_ptr<const stap::CompiledSchema>> compiled;
  std::vector<DocumentFactory> factories;
  for (const SchemaSource& source : in.schemas) {
    compiled.push_back(CompileOrDie(source));
  }
  for (const auto& schema : compiled) factories.emplace_back(schema->edtd);

  std::mt19937 rng(static_cast<uint32_t>(options.seed));
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<size_t> size(50, 800);
  Fingerprint fingerprint;
  for (int i = 0; i < kPoolSize; ++i) {
    const bool inline_schema = percent(rng) < kInlinePercent;
    const int choices =
        inline_schema ? kInlinePool : static_cast<int>(in.schemas.size());
    const int s = std::uniform_int_distribution<int>(0, choices - 1)(rng);
    const bool valid = percent(rng) >= kInvalidPercent;
    const size_t target = size(rng);
    stap::ServeRequest request;
    request.id = static_cast<uint64_t>(i) + 1;
    request.op = stap::Opcode::kValidate;
    request.schema_ref =
        inline_schema ? in.schemas[s].text : "@" + in.schemas[s].name;
    request.payload = valid ? factories[s].Valid(&rng, target, 5)
                            : factories[s].Invalid(&rng, target, 5);
    fingerprint.Add(request.schema_ref);
    fingerprint.Add(request.payload);
    fingerprint.Add(valid ? 1 : 0);
    in.frames.push_back(stap::EncodeRequestFrame(request));
    in.valid.push_back(valid);
  }
  if (options.plant == "verdict") in.valid[0] = !in.valid[0];
  in.fingerprint = fingerprint.value();
  return in;
}

// One server with its own compile cache and freshly compiled schemas.
struct Fixture {
  stap::CompileCache cache;
  stap::SchemaMap schemas;
  std::unique_ptr<stap::Server> server;
};

std::unique_ptr<Fixture> StartFixture(const ServeInputs& in) {
  auto fixture = std::make_unique<Fixture>();
  for (const SchemaSource& source : in.schemas) {
    fixture->schemas[source.name] = CompileOrDie(source);
  }
  stap::ServeOptions options;
  options.cache = &fixture->cache;
  fixture->server = std::make_unique<stap::Server>(options);
  fixture->server->registry()->Swap(fixture->schemas);
  stap::Status started = fixture->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server start: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  return fixture;
}

bool ResponseMatches(const ServeInputs& in, int index,
                     const stap::ServeResponse& response) {
  const ResponseCode expected =
      in.valid[index] ? ResponseCode::kOk : ResponseCode::kInvalid;
  return response.id == static_cast<uint64_t>(index) + 1 &&
         response.code == expected;
}

// Per connection and time slice: the latencies of the requests that
// completed in the slice.
struct ConnectionResult {
  std::vector<LatencyHistogram> slices;
  Report checks;
};

// Per time slice of a window, possibly spread over several rounds of a
// run: each figure is the median over the slices of that slice's
// throughput or latency quantile.
struct SliceLog {
  std::vector<double> ops_per_s, p50_us, p90_us, p99_us;
  int64_t samples = 0;
  size_t scaled = 0;  // slices already scaled to the nominal machine speed

  // Scales the slices logged since the last call by the machine slowness
  // sampled right after them.
  void Scale(double slowness) {
    for (; scaled < ops_per_s.size(); ++scaled) {
      ops_per_s[scaled] *= slowness;
      p50_us[scaled] /= slowness;
      p90_us[scaled] /= slowness;
      p99_us[scaled] /= slowness;
    }
  }
  WindowStats Summarize() const {
    return {Median(ops_per_s), samples, Median(p50_us), Median(p90_us),
            Median(p99_us)};
  }
};

// Runs kConnections closed-loop clients, each keeping kWindow requests in
// flight, for `seconds` (or, when `seconds` is 0, until `max_requests`
// have been sent in total). Every response is checked; requests still in
// flight at the deadline are drained and checked but not timed. Every
// kSwapEvery responses the registry is swapped, beside the reads. A timed
// window is cut into kSliceSeconds slices and logged into `log`.
void RunLoop(Fixture* fixture, const ServeInputs& in, double seconds,
             int64_t max_requests, std::vector<Tracer>* tracers,
             Report* report, SliceLog* log) {
  const int num_slices =
      std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
  const double slice_seconds = seconds > 0 ? seconds / num_slices : 0;
  std::vector<ConnectionResult> results(kConnections);
  for (ConnectionResult& result : results) result.slices.resize(num_slices);
  std::atomic<int64_t> responses{0};
  std::latch connected(kConnections);
  std::latch go(1);
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  auto connection = [&](int c) {
    ConnectionResult& result = results[c];
    Tracer* tracer = tracers == nullptr ? nullptr : &(*tracers)[c];
    stap::ServeClient client;
    stap::Status status =
        client.Connect("127.0.0.1", fixture->server->port());
    connected.count_down();
    go.wait();
    if (!status.ok()) {
      ++result.checks.attempted;
      result.checks.Fail("connect: " + status.ToString());
      return;
    }
    const int64_t limit = max_requests / kConnections;
    int64_t next = c * (kPoolSize / kConnections);
    int64_t sent = 0;
    std::deque<std::pair<int, int64_t>> inflight;  // (request, send time)
    auto may_send = [&] {
      return seconds > 0 ? NowNs() < deadline_ns : sent < limit;
    };
    auto send = [&] {
      const int index = static_cast<int>(next++ % kPoolSize);
      const int64_t sent_ns = NowNs();
      ScopedSpan span(tracer, "client.send");
      stap::Status written = client.SendRaw(in.frames[index]);
      if (!written.ok()) {
        ++result.checks.attempted;
        result.checks.Fail("send: " + written.ToString());
        return false;
      }
      inflight.emplace_back(index, sent_ns);
      ++sent;
      return true;
    };
    for (int w = 0; w < kWindow && may_send(); ++w) {
      if (!send()) return;
    }
    while (!inflight.empty()) {
      const auto [index, sent_ns] = inflight.front();
      inflight.pop_front();
      stap::StatusOr<stap::ServeResponse> response(
          stap::InternalError("unset"));
      {
        ScopedSpan span(tracer, "client.receive");
        response = client.Receive();
      }
      const int64_t now_ns = NowNs();
      ++result.checks.attempted;
      if (!response.ok()) {
        result.checks.Fail("receive: " + response.status().ToString());
        return;
      }
      if (!ResponseMatches(in, index, *response)) {
        result.checks.Fail(
            "request " + std::to_string(index) + ": got " +
            stap::ResponseCodeName(response->code) + " (" + response->body +
            "), expected " + (in.valid[index] ? "OK" : "INVALID"));
      } else if (seconds > 0 && now_ns < deadline_ns) {
        const int slice = std::min(
            num_slices - 1,
            static_cast<int>((now_ns - start_ns) * 1e-9 / slice_seconds));
        result.slices[slice].Record((now_ns - sent_ns) * 1e-3);
      }
      if (responses.fetch_add(1) % kSwapEvery == kSwapEvery - 1) {
        fixture->server->registry()->Swap(fixture->schemas);
      }
      if (may_send() && !send()) return;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(connection, c);
  connected.wait();
  start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  go.count_down();
  for (std::thread& thread : threads) thread.join();

  for (ConnectionResult& result : results) report->Absorb(result.checks);
  if (log == nullptr) return;
  for (int s = 0; s < num_slices; ++s) {
    LatencyHistogram slice;
    for (ConnectionResult& result : results) slice.Merge(result.slices[s]);
    log->samples += slice.count();
    log->ops_per_s.push_back(slice.count() / slice_seconds);
    log->p50_us.push_back(slice.Quantile(0.50));
    log->p90_us.push_back(slice.Quantile(0.90));
    log->p99_us.push_back(slice.Quantile(0.99));
  }
}

// Set-up: compile the corpus, start the server, and run a fixed warm-up
// through the loop.
std::unique_ptr<Fixture> SetUp(const ServeInputs& in,
                               std::vector<double>* seconds, Report* report) {
  const int64_t start_ns = NowNs();
  std::unique_ptr<Fixture> fixture = StartFixture(in);
  RunLoop(fixture.get(), in, 0, kWarmupRequests, nullptr, report, nullptr);
  seconds->push_back(SecondsSince(start_ns));
  return fixture;
}

}  // namespace

void RunServeSmall(const Options& options, Report* report) {
  const ServeInputs in = MakeServeInputs(options);
  report->notes.push_back("inputs " + std::to_string(in.fingerprint));
  std::vector<double> setup_seconds;
  if (!options.trace) {
    SliceLog log;
    Speedometer speed;
    for (int round = 0; round < kRounds; ++round) {
      std::unique_ptr<Fixture> fixture = SetUp(in, &setup_seconds, report);
      for (int part = 0; part < kPartsPerRound; ++part) {
        RunLoop(fixture.get(), in, options.seconds / kRounds / kPartsPerRound,
                0, nullptr, report, &log);
        speed.Sample();
        log.Scale(speed.last());
      }
    }
    ReportEndToEnd(setup_seconds, log.Summarize(), speed, report);
    return;
  }
  std::unique_ptr<Fixture> fixture = SetUp(in, &setup_seconds, report);
  SliceLog untraced;
  RunLoop(fixture.get(), in, options.seconds / 2, 0, nullptr, report,
          &untraced);
  std::vector<Tracer> tracers(kConnections);
  SliceLog traced;
  RunLoop(fixture.get(), in, options.seconds / 2, 0, &tracers, report,
          &traced);
  ReportTracingOverhead(untraced.Summarize(), traced.Summarize(), report);
}

// Per-layer metrics of the serve path, from an in-process replay of the
// request stream: decode, HandleRequest and encode are timed per request,
// and ValidateDocument is timed on the same document beside them so that
// the handler's own share (snapshot, budget, access log) is the
// difference. A short live loop gives the throughput for busy_share.
void ServeLayers(const Options& options, Report* report) {
  const ServeInputs in = MakeServeInputs(options);
  stap::Counter* const inline_hit = stap::GetCounter("serve.inline_hit");
  stap::Counter* const inline_miss = stap::GetCounter("serve.inline_miss");
  const int64_t hit_before = inline_hit->value();
  const int64_t miss_before = inline_miss->value();
  std::vector<double> ignored;
  std::unique_ptr<Fixture> fixture = SetUp(in, &ignored, report);
  SliceLog live;
  RunLoop(fixture.get(), in, kLayerLoopSeconds, 0, nullptr, report, &live);
  const double live_ops_per_s = live.Summarize().ops_per_s;
  const double hits = inline_hit->value() - hit_before;
  const double misses = inline_miss->value() - miss_before;

  Tracer tracer;
  stap::Server* server = fixture->server.get();
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    for (int i = 0; i < kPoolSize; ++i) {
      const std::string_view body = std::string_view(in.frames[i]).substr(4);
      stap::StatusOr<stap::ServeRequest> request(stap::InternalError("unset"));
      {
        ScopedSpan span(&tracer, "serve.decode");
        request = stap::DecodeRequestBody(body);
      }
      ++report->attempted;
      if (!request.ok()) {
        report->Fail("decode: " + request.status().ToString());
        continue;
      }
      stap::ServeResponse response;
      {
        ScopedSpan span(&tracer, "serve.handle");
        response = server->HandleRequest(*request);
      }
      std::string frame;
      {
        ScopedSpan span(&tracer, "serve.encode");
        frame = stap::EncodeResponseFrame(response);
      }
      if (!ResponseMatches(in, i, response) || frame.size() < 4) {
        report->Fail("replayed request " + std::to_string(i) + ": got " +
                     stap::ResponseCodeName(response.code));
      }
      const std::string& ref = request->schema_ref;
      std::shared_ptr<const stap::CompiledSchema> schema =
          ref[0] == '@'
              ? fixture->schemas.at(ref.substr(1))
              : *server->registry()->GetOrCompileText(ref, &fixture->cache);
      ScopedSpan span(&tracer, "serve.validate_document");
      stap::ValidateDocument(*schema, request->payload, nullptr);
    }
  }
  std::map<std::string, Tracer::Totals> totals = tracer.Summarize();
  const double decode = totals["serve.decode"].mean_us();
  const double handle = totals["serve.handle"].mean_us();
  const double encode = totals["serve.encode"].mean_us();
  report->AddLayer("serve.decode_us", decode, "us");
  report->AddLayer("serve.handle_us", handle, "us");
  report->AddLayer("serve.handle_self_us",
                   handle - totals["serve.validate_document"].mean_us(), "us");
  report->AddLayer("serve.encode_us", encode, "us");
  report->AddLayer("serve.busy_share",
                   live_ops_per_s * (decode + handle + encode) * 1e-6 /
                       kConnections,
                   "ratio");
  report->AddLayer("serve.inline_hit_ratio",
                   hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
}

}  // namespace perfbench
