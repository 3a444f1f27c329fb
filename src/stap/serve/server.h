// The `stap serve` daemon: a long-running validation service over the
// compiled-schema pipeline.
//
// Architecture (see DESIGN.md, "The serve daemon"):
//
//   - One accept thread; one handler thread per client connection, with
//     a hard connection cap. A connection past the cap is shed with a
//     BUSY frame at accept time — bounded threads, no unbounded queue.
//   - Requests within a connection are processed serially in arrival
//     order; concurrency comes from concurrent connections. A global
//     in-flight gate (max_inflight) sheds individual requests with BUSY
//     when the server is saturated, so overload degrades per-request
//     instead of stalling the socket.
//   - Schema state is an immutable SchemaSnapshot behind one shared_ptr
//     copied under a short lock (snapshot.h); artifact hot-reload swaps
//     the epoch without blocking in-flight requests. Inline schema text
//     compiles through the exactly-once registry memo + CompileCache —
//     a 32-client cold stampede performs each content-model compilation
//     once.
//   - Every request gets its own Budget (deadline + state/set quotas
//     from ServeOptions); exhaustion returns an EXHAUSTED frame, the
//     connection stays healthy.
//   - The same port speaks a minimal HTTP GET surface for scrapers:
//     /metrics (Prometheus exposition of the process-wide registry),
//     /healthz (readiness; first line is exactly "ok"), /statusz (a
//     one-page JSON status: uptime, snapshot epoch, liveness gauges,
//     rolling-window latency/error SLOs, build info), and /requestz (the
//     access log's recent + slow request rings as JSON). The dialect is
//     picked by the 4-byte connection preamble.
//   - Every request is access-logged (base/logging.h): a JSONL record
//     with ids, op, schema ref, code, budget charge, latency, and epoch,
//     kept in a bounded ring and optionally appended to a file. Requests
//     slower than ServeOptions::slow_request_ms retroactively keep their
//     span tree (base/trace.h RequestCapture) for /requestz; requests
//     under the threshold pay a fixed-buffer capture with no per-request
//     heap allocation.
#ifndef STAP_SERVE_SERVER_H_
#define STAP_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "stap/base/budget.h"
#include "stap/base/logging.h"
#include "stap/base/status.h"
#include "stap/serve/protocol.h"
#include "stap/serve/snapshot.h"

namespace stap {

class CompileCache;

struct ServeOptions {
  // Listen address. Port 0 binds an ephemeral port (see Server::port()).
  std::string host = "127.0.0.1";
  int port = 0;
  // Hard cap on concurrent client connections; connection n+1 is shed
  // with a BUSY frame and closed.
  int max_connections = 64;
  // Cap on requests being processed at once across all connections;
  // 0 or negative disables the gate (connections already bound it).
  int max_inflight = 0;
  // Per-request budget; 0 = unlimited for that dimension.
  int64_t request_budget_ms = 0;
  int64_t request_max_states = 0;
  int64_t request_max_sets = 0;
  // Largest accepted frame body.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Directory of *.stapc artifacts / *.stap schemas loaded at Start and
  // re-scanned by kReload; empty = start with an empty snapshot.
  std::string schema_dir;
  // Content-model compile cache; null = CompileCache::Global().
  CompileCache* cache = nullptr;

  // --- request-level observability (base/logging.h) ---
  // JSONL access-log file, appended; empty keeps the log in-memory only
  // (the /requestz rings always run).
  std::string access_log_path;
  // Requests strictly slower than this keep their span tree in the slow
  // ring served by /requestz; 0 disables slow capture entirely.
  int64_t slow_request_ms = 0;
  // Ring capacities for /requestz.
  size_t access_log_ring = 256;
  size_t slow_ring = 64;
  // File-sink overload budget (lines/second, 0 = unlimited); excess
  // lines are dropped and counted, never queued.
  int64_t access_log_max_lines_per_sec = 100000;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();  // Stops if still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Loads the schema directory, binds, listens, and starts accepting.
  Status Start();

  // Shuts the listener and every open connection down and joins all
  // handler threads. Idempotent; safe from a signal-wakeup thread.
  void Stop();

  // The bound port (resolves port 0), valid after a successful Start().
  int port() const { return port_; }

  // The live schema registry: tests and the reload path swap snapshots
  // through it while traffic is in flight.
  SchemaRegistry* registry() { return &registry_; }

  // Computes the response for one decoded request — the protocol-free
  // core of the daemon, exercised directly by unit tests. `conn_id` tags
  // the access-log record (0 = no connection, e.g. direct test calls).
  ServeResponse HandleRequest(const ServeRequest& request,
                              uint64_t conn_id = 0);

  // The request-level access log (rings + optional file sink).
  AccessLogger* access_log() { return &access_log_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd, uint64_t conn_id);
  void ServeBinary(int fd, uint64_t conn_id);
  void ServeHttp(int fd, const char preamble[4]);
  std::string StatuszJson() const;
  std::string HealthzBody() const;
  StatusOr<std::shared_ptr<const CompiledSchema>> ResolveSchema(
      const std::string& ref);
  CompileCache* cache() const;

  // Registers/unregisters live connection fds so Stop can interrupt
  // blocked reads with shutdown(2). Handler threads are detached (a
  // joinable handle per short-lived connection would hold its stack
  // until a join); Stop drains them by waiting for the fd set to empty.
  bool TrackConnection(int fd);
  void ForgetConnection(int fd);

  ServeOptions options_;
  SchemaRegistry registry_;
  AccessLogger access_log_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<int> active_connections_{0};
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> next_conn_id_{0};
  std::atomic<uint64_t> next_request_id_{0};
  std::chrono::steady_clock::time_point start_time_{};

  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::condition_variable connections_drained_;
  std::unordered_set<int> connection_fds_;  // guarded by connections_mutex_
};

}  // namespace stap

#endif  // STAP_SERVE_SERVER_H_
