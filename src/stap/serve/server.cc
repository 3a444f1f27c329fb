#include "stap/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/base/string_util.h"
#include "stap/base/trace.h"
#include "stap/io/batch_validate.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"

namespace stap {

namespace {

Status ReadExactly(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("read failed: ") +
                           std::strerror(errno));
    }
    if (r == 0) return NotFoundError("connection closed");
    got += static_cast<size_t>(r);
  }
  return Status();
}

ResponseCode CodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return ResponseCode::kExhausted;
    case StatusCode::kNotFound:
      return ResponseCode::kNotFound;
    default:
      return ResponseCode::kError;
  }
}

// Lifetime counters plus per-code rolling windows: /statusz reports
// "errors in the last minute", not just "errors ever".
void CountResponse(ResponseCode code) {
  static Counter* const ok = GetCounter("serve.ok");
  static Counter* const invalid = GetCounter("serve.invalid");
  static Counter* const error = GetCounter("serve.error");
  static Counter* const busy = GetCounter("serve.busy");
  static Counter* const exhausted = GetCounter("serve.exhausted");
  static Counter* const not_found = GetCounter("serve.not_found");
  static RollingCounter* const roll_ok = GetRollingCounter("serve.rolling.ok");
  static RollingCounter* const roll_invalid =
      GetRollingCounter("serve.rolling.invalid");
  static RollingCounter* const roll_error =
      GetRollingCounter("serve.rolling.error");
  static RollingCounter* const roll_busy =
      GetRollingCounter("serve.rolling.busy");
  static RollingCounter* const roll_exhausted =
      GetRollingCounter("serve.rolling.exhausted");
  static RollingCounter* const roll_not_found =
      GetRollingCounter("serve.rolling.not_found");
  switch (code) {
    case ResponseCode::kOk:
      ok->Increment();
      roll_ok->Increment();
      break;
    case ResponseCode::kInvalid:
      invalid->Increment();
      roll_invalid->Increment();
      break;
    case ResponseCode::kError:
      error->Increment();
      roll_error->Increment();
      break;
    case ResponseCode::kBusy:
      busy->Increment();
      roll_busy->Increment();
      break;
    case ResponseCode::kExhausted:
      exhausted->Increment();
      roll_exhausted->Increment();
      break;
    case ResponseCode::kNotFound:
      not_found->Increment();
      roll_not_found->Increment();
      break;
  }
}

// Liveness gauges mirror the server's private atomics into /metrics.
Gauge* ActiveConnectionsGauge() {
  static Gauge* const gauge = GetGauge("serve.active_connections");
  return gauge;
}

Gauge* InflightGauge() {
  static Gauge* const gauge = GetGauge("serve.inflight");
  return gauge;
}

int64_t WallNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string HttpResponse(const char* status_line, const std::string& body,
                         const char* content_type =
                             "text/plain; version=0.0.4") {
  std::string response = "HTTP/1.0 ";
  response += status_line;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

}  // namespace

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Server::~Server() { Stop(); }

CompileCache* Server::cache() const {
  return options_.cache != nullptr ? options_.cache : CompileCache::Global();
}

Status Server::Start() {
  if (running_.load()) return FailedPreconditionError("server already running");
  {
    AccessLogger::Options log_options;
    log_options.file_path = options_.access_log_path;
    log_options.recent_ring = options_.access_log_ring;
    log_options.slow_ring = options_.slow_ring;
    log_options.slow_threshold_us = options_.slow_request_ms * 1000;
    log_options.max_file_lines_per_sec = options_.access_log_max_lines_per_sec;
    std::string log_error;
    if (!access_log_.Configure(std::move(log_options), &log_error)) {
      return InvalidArgumentError(log_error);
    }
  }
  if (!options_.schema_dir.empty()) {
    StatusOr<SchemaMap> schemas = LoadSchemaDir(options_.schema_dir, cache());
    if (!schemas.ok()) return schemas.status();
    registry_.Swap(std::move(*schemas));
  }
  // Eager-register the liveness gauges and rolling windows so the very
  // first /metrics scrape lists them, before any traffic has arrived.
  ActiveConnectionsGauge();
  InflightGauge();
  GetGauge("serve.snapshot_epoch")->Set(registry_.Current()->version);
  GetRollingHistogram("serve.rolling.request_us");
  for (const char* name :
       {"serve.rolling.ok", "serve.rolling.invalid", "serve.rolling.error",
        "serve.rolling.busy", "serve.rolling.exhausted",
        "serve.rolling.not_found"}) {
    GetRollingCounter(name);
  }
  start_time_ = std::chrono::steady_clock::now();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket failed: ") +
                         std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError("cannot parse listen address '" +
                                options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = InternalError("cannot bind " + options_.host + ":" +
                                  std::to_string(options_.port) + ": " +
                                  std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    Status status =
        InternalError(std::string("listen failed: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  running_.store(true);
  accept_thread_ = std::thread([this] {
    SetCurrentThreadName("stap-accept");
    AcceptLoop();
  });
  return Status();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock the accept thread, then every connection read; the detached
  // handler threads observe EOF/errors and drain themselves, each
  // removing its fd from the tracked set on the way out.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connections_drained_.wait(lock, [&] { return connection_fds_.empty(); });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  access_log_.Flush();
}

bool Server::TrackConnection(int fd) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  if (!running_.load()) return false;
  connection_fds_.insert(fd);
  return true;
}

void Server::ForgetConnection(int fd) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection_fds_.erase(fd);
  ::close(fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  ActiveConnectionsGauge()->Add(-1);
  // Notify under the lock: Stop's drain wait must not miss the final
  // removal, and after the lock is released this thread never touches
  // the Server again.
  connections_drained_.notify_all();
}

void Server::AcceptLoop() {
  static Counter* const accepted = GetCounter("serve.connections");
  static Counter* const shed = GetCounter("serve.connections_shed");
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or a fatal accept error) — drain
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Over the connection cap: shed with a BUSY frame instead of
      // queueing. The write is tiny (fits any socket buffer), so doing
      // it from the accept thread cannot stall the listener.
      shed->Increment();
      ServeResponse busy{0, ResponseCode::kBusy, "connection limit reached"};
      WriteAll(fd, EncodeResponseFrame(busy));
      // Closing with unread bytes (the client's preamble) in the receive
      // buffer turns into an RST that can destroy the BUSY frame before
      // the client reads it: signal end-of-stream first, then drain what
      // the client sent — bounded in both time and rounds so a hostile
      // peer cannot stall the accept thread.
      ::shutdown(fd, SHUT_WR);
      timeval drain_timeout{};
      drain_timeout.tv_usec = 20000;  // 20ms
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &drain_timeout,
                   sizeof(drain_timeout));
      char discard[256];
      for (int i = 0; i < 8 && ::read(fd, discard, sizeof(discard)) > 0; ++i) {
      }
      ::close(fd);
      continue;
    }
    if (!TrackConnection(fd)) {
      ::close(fd);
      break;
    }
    accepted->Increment();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    ActiveConnectionsGauge()->Add(1);
    const uint64_t conn_id =
        next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::thread([this, fd, conn_id] {
      SetCurrentThreadName("stap-conn");
      HandleConnection(fd, conn_id);
      ForgetConnection(fd);
    }).detach();
  }
}

void Server::HandleConnection(int fd, uint64_t conn_id) {
  char preamble[4];
  if (!ReadExactly(fd, preamble, 4).ok()) return;
  if (std::memcmp(preamble, kServePreamble, 4) == 0) {
    ServeBinary(fd, conn_id);
    return;
  }
  if (std::memcmp(preamble, "GET ", 4) == 0) {
    ServeHttp(fd, preamble);
    return;
  }
  GetCounter("serve.bad_preamble")->Increment();
  ServeResponse error{0, ResponseCode::kError,
                      "unrecognized connection preamble"};
  WriteAll(fd, EncodeResponseFrame(error));
}

void Server::ServeBinary(int fd, uint64_t conn_id) {
  // Requests shed before HandleRequest (undecodable, or BUSY at the
  // inflight gate) still get an access-log record: the access log is the
  // place an operator looks for exactly these.
  const auto log_shed = [&](const ServeRequest* request,
                            const ServeResponse& response) {
    AccessRecord record;
    record.ts_us = WallNowUs();
    record.request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    record.client_request_id = request != nullptr ? request->id : 0;
    record.conn_id = conn_id;
    record.op = request != nullptr ? OpcodeName(request->op) : "unknown";
    if (request != nullptr) {
      record.schema_ref = TruncateForLog(request->schema_ref);
    }
    record.code = ResponseCodeName(response.code);
    record.snapshot_epoch = registry_.Current()->version;
    access_log_.Log(record);
  };
  while (running_.load()) {
    StatusOr<std::string> body = ReadFrameBody(fd, options_.max_frame_bytes);
    if (!body.ok()) {
      // kNotFound marks a clean close between frames; anything else is a
      // framing violation (oversized length, truncated body) after which
      // the stream cannot be re-synchronized — report and hang up.
      if (body.status().code() != StatusCode::kNotFound) {
        GetCounter("serve.bad_frame")->Increment();
        ServeResponse error{0, ResponseCode::kError, body.status().message()};
        WriteAll(fd, EncodeResponseFrame(error));
      }
      return;
    }
    StatusOr<ServeRequest> request = DecodeRequestBody(*body);
    ServeResponse response;
    if (!request.ok()) {
      // The framing was intact, so the stream is still synchronized:
      // reject this request and keep the connection.
      GetCounter("serve.bad_request")->Increment();
      response = {0, ResponseCode::kError, request.status().message()};
      CountResponse(response.code);
      log_shed(nullptr, response);
    } else if (options_.max_inflight > 0 &&
               inflight_.fetch_add(1, std::memory_order_relaxed) + 1 >
                   options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      response = {request->id, ResponseCode::kBusy, "server saturated"};
      CountResponse(response.code);
      log_shed(&*request, response);
    } else {
      if (options_.max_inflight > 0) InflightGauge()->Add(1);
      response = HandleRequest(*request, conn_id);
      if (options_.max_inflight > 0) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        InflightGauge()->Add(-1);
      }
    }
    if (!WriteAll(fd, EncodeResponseFrame(response)).ok()) return;
  }
}

void Server::ServeHttp(int fd, const char preamble[4]) {
  // The first 4 bytes ("GET ") are already consumed; read the rest of
  // the request head, bounded so a hostile client cannot grow the buffer.
  std::string head(preamble, 4);
  char chunk[512];
  while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
    ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    head.append(chunk, static_cast<size_t>(r));
  }
  const size_t path_start = 4;
  const size_t path_end = head.find(' ', path_start);
  const std::string path = path_end == std::string::npos
                               ? std::string()
                               : head.substr(path_start, path_end - path_start);
  GetCounter("serve.http_requests")->Increment();
  std::string response;
  if (path == "/healthz") {
    response = HttpResponse("200 OK", HealthzBody());
  } else if (path == "/metrics") {
    response = HttpResponse("200 OK",
                            MetricsRegistry::Global()->ToPrometheusText());
  } else if (path == "/statusz") {
    response = HttpResponse("200 OK", StatuszJson(), "application/json");
  } else if (path == "/requestz") {
    response = HttpResponse("200 OK", access_log_.ToJson(),
                            "application/json");
  } else {
    response = HttpResponse("404 Not Found", "not found\n");
  }
  WriteAll(fd, response);
}

StatusOr<std::shared_ptr<const CompiledSchema>> Server::ResolveSchema(
    const std::string& ref) {
  if (ref.empty()) return InvalidArgumentError("empty schema ref");
  if (ref[0] == '@') {
    std::shared_ptr<const CompiledSchema> schema = registry_.Lookup(
        ref.substr(1));
    if (schema == nullptr) {
      return NotFoundError("unknown schema '" + ref + "'");
    }
    return schema;
  }
  return registry_.GetOrCompileText(ref, cache());
}

ServeResponse Server::HandleRequest(const ServeRequest& request,
                                    uint64_t conn_id) {
  static Counter* const requests = GetCounter("serve.requests");
  static Histogram* const latency = GetHistogram("serve.request_ms");
  static RollingHistogram* const rolling_latency =
      GetRollingHistogram("serve.rolling.request_us");
  requests->Increment();
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  ScopedTimer timer(latency);
  // Under a slow-request threshold every request runs inside the thread's
  // reusable RequestCapture; fast requests Abort() it allocation-free and
  // only the slow ones pay to keep their span tree.
  RequestCapture* capture = nullptr;
  if (access_log_.capture_slow()) {
    capture = ThreadRequestCapture();
    capture->Begin();
  }
  ScopedSpan span("serve.request");
  span.AddArg("op", static_cast<int64_t>(request.op));

  std::unique_ptr<Budget> budget;
  if (options_.request_budget_ms > 0 || options_.request_max_states > 0 ||
      options_.request_max_sets > 0) {
    budget = std::make_unique<Budget>();
    if (options_.request_budget_ms > 0) {
      budget->set_deadline_ms(options_.request_budget_ms);
    }
    if (options_.request_max_states > 0) {
      budget->set_max_states(options_.request_max_states);
    }
    if (options_.request_max_sets > 0) {
      budget->set_max_sets(options_.request_max_sets);
    }
  }

  ServeResponse response;
  response.id = request.id;
  response.code = ResponseCode::kError;

  switch (request.op) {
    case Opcode::kPing: {
      response.code = ResponseCode::kOk;
      response.body = request.payload;
      break;
    }
    case Opcode::kReload: {
      if (options_.schema_dir.empty()) {
        response.body = "server has no schema directory to reload";
        break;
      }
      StatusOr<SchemaMap> schemas =
          LoadSchemaDir(options_.schema_dir, cache());
      if (!schemas.ok()) {
        response.code = CodeForStatus(schemas.status());
        response.body = schemas.status().message();
        break;
      }
      const size_t count = schemas->size();
      const int64_t version = registry_.Swap(std::move(*schemas));
      response.code = ResponseCode::kOk;
      response.body = "snapshot version " + std::to_string(version) + ": " +
                      std::to_string(count) + " schemas";
      break;
    }
    case Opcode::kValidate: {
      StatusOr<std::shared_ptr<const CompiledSchema>> schema =
          ResolveSchema(request.schema_ref);
      if (!schema.ok()) {
        response.code = CodeForStatus(schema.status());
        response.body = schema.status().message();
        break;
      }
      DocumentVerdict verdict =
          ValidateDocument(**schema, request.payload, budget.get());
      switch (verdict.kind) {
        case DocumentVerdict::Kind::kValid:
          response.code = ResponseCode::kOk;
          break;
        case DocumentVerdict::Kind::kInvalid:
          response.code = ResponseCode::kInvalid;
          response.body = verdict.message;
          break;
        case DocumentVerdict::Kind::kError:
          response.code = verdict.error_code == StatusCode::kResourceExhausted
                              ? ResponseCode::kExhausted
                              : ResponseCode::kError;
          response.body = verdict.message;
          break;
      }
      break;
    }
    case Opcode::kIncluded: {
      StatusOr<std::shared_ptr<const CompiledSchema>> s1 =
          ResolveSchema(request.schema_ref);
      if (!s1.ok()) {
        response.code = CodeForStatus(s1.status());
        response.body = s1.status().message();
        break;
      }
      StatusOr<std::shared_ptr<const CompiledSchema>> s2 =
          ResolveSchema(request.payload);
      if (!s2.ok()) {
        response.code = CodeForStatus(s2.status());
        response.body = s2.status().message();
        break;
      }
      if (!(*s2)->single_type) {
        response.body =
            "the second schema must be single-type for the PTIME test";
        break;
      }
      StatusOr<bool> included = EdtdIncludedInXsd(
          (*s1)->edtd, (*s2)->xsd, nullptr, budget.get());
      if (!included.ok()) {
        response.code = CodeForStatus(included.status());
        response.body = included.status().message();
        break;
      }
      response.code = ResponseCode::kOk;
      response.body = *included ? "INCLUDED" : "NOT INCLUDED";
      break;
    }
    case Opcode::kApprox: {
      StatusOr<std::shared_ptr<const CompiledSchema>> schema =
          ResolveSchema(request.schema_ref);
      if (!schema.ok()) {
        response.code = CodeForStatus(schema.status());
        response.body = schema.status().message();
        break;
      }
      StatusOr<DfaXsd> xsd =
          MinimalUpperApproximation((*schema)->edtd, budget.get());
      StatusOr<std::string> text =
          xsd.ok() ? XsdToText(*xsd, budget.get()) : xsd.status();
      if (!text.ok()) {
        response.code = CodeForStatus(text.status());
        response.body = text.status().message();
        break;
      }
      response.code = ResponseCode::kOk;
      response.body = *std::move(text);
      break;
    }
  }
  CountResponse(response.code);
  span.End();  // close the span tree before detaching the capture

  const int64_t latency_us = std::llround(timer.ElapsedUs());
  rolling_latency->Record(static_cast<double>(latency_us));

  AccessRecord record;
  record.ts_us = WallNowUs();
  record.request_id = request_id;
  record.client_request_id = request.id;
  record.conn_id = conn_id;
  record.op = OpcodeName(request.op);
  record.schema_ref = TruncateForLog(request.schema_ref);
  record.code = ResponseCodeName(response.code);
  record.latency_us = latency_us;
  record.budget_states = budget != nullptr ? budget->states_charged() : 0;
  record.snapshot_epoch = registry_.Current()->version;
  if (capture != nullptr) {
    if (access_log_.IsSlow(latency_us)) {
      const bool truncated = capture->truncated();
      access_log_.LogSlow(record, capture->Detach(), truncated);
    } else {
      capture->Abort();
      access_log_.Log(record);
    }
  } else {
    access_log_.Log(record);
  }
  return response;
}

std::string Server::StatuszJson() const {
  static RollingHistogram* const rolling_latency =
      GetRollingHistogram("serve.rolling.request_us");
  const std::shared_ptr<const SchemaSnapshot> snapshot = registry_.Current();
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  const Histogram::Snapshot window = rolling_latency->snapshot();
  const double window_s =
      static_cast<double>(rolling_latency->window_us()) / 1e6;
  std::ostringstream os;
  os.precision(15);
  os << "{\n  \"service\": \"stap-serve\",\n"
     << "  \"build\": \"" << JsonEscape(__VERSION__) << "\",\n"
     << "  \"uptime_s\": " << uptime_s << ",\n"
     << "  \"snapshot_epoch\": " << snapshot->version << ",\n"
     << "  \"schema_count\": " << snapshot->schemas.size() << ",\n"
     << "  \"inline_schemas\": " << registry_.num_inline() << ",\n"
     << "  \"active_connections\": "
     << active_connections_.load(std::memory_order_relaxed) << ",\n"
     << "  \"inflight\": " << inflight_.load(std::memory_order_relaxed)
     << ",\n"
     << "  \"max_connections\": " << options_.max_connections << ",\n"
     << "  \"max_inflight\": " << options_.max_inflight << ",\n"
     << "  \"total_connections\": "
     << GetCounter("serve.connections")->value() << ",\n"
     << "  \"total_requests\": " << GetCounter("serve.requests")->value()
     << ",\n"
     << "  \"window_s\": " << window_s << ",\n"
     << "  \"window_requests\": " << window.count << ",\n"
     << "  \"window_qps\": "
     << (window_s > 0 ? static_cast<double>(window.count) / window_s : 0)
     << ",\n"
     << "  \"p50_us\": " << SnapshotQuantile(window, 0.5) << ",\n"
     << "  \"p95_us\": " << SnapshotQuantile(window, 0.95) << ",\n"
     << "  \"p99_us\": " << SnapshotQuantile(window, 0.99) << ",\n"
     << "  \"max_us\": " << window.max << ",\n"
     << "  \"mean_us\": "
     << (window.count > 0 ? window.sum / static_cast<double>(window.count)
                          : 0)
     << ",\n";
  for (const char* code :
       {"ok", "invalid", "error", "busy", "exhausted", "not_found"}) {
    os << "  \"window_" << code << "\": "
       << GetRollingCounter(std::string("serve.rolling.") + code)->value()
       << ",\n";
  }
  os << "  \"slow_request_ms\": " << options_.slow_request_ms << ",\n"
     << "  \"slow_captured\": "
     << GetCounter("access_log.slow_captured")->value() << ",\n"
     << "  \"access_log_lines\": "
     << GetCounter("access_log.lines_written")->value() << ",\n"
     << "  \"access_log_dropped\": "
     << GetCounter("access_log.dropped")->value() << "\n}\n";
  return os.str();
}

// Machine-readable readiness: the first line stays exactly "ok" (PR 6-era
// scrapers and the CI smoke grep depend on it); detail lines follow in
// key=value form.
std::string Server::HealthzBody() const {
  const std::shared_ptr<const SchemaSnapshot> snapshot = registry_.Current();
  const int64_t uptime_s =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  std::string body = "ok\n";
  body += "epoch=" + std::to_string(snapshot->version) + "\n";
  body += "schemas=" + std::to_string(snapshot->schemas.size()) + "\n";
  body += "uptime_s=" + std::to_string(uptime_s) + "\n";
  return body;
}

}  // namespace stap
