// Structured tracing: nested spans with typed args, exported as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing) and as a
// per-phase provenance table (`stap explain`).
//
// Metrics (base/metrics.h) answer "how much, in total"; spans answer
// "where, and when". A TraceSession collects begin/end events from every
// thread that touches the pipeline — one RAII ScopedSpan per phase,
// annotated with the numbers that phase is about (state counts, frontier
// sizes, budget charge) — so the exponential blowups the paper predicts
// (Theorems 3.2/3.6/3.8) show up as visibly wide slices on a timeline
// rather than as an opaque end-of-run total.
//
// Cost contract:
//  * No session active: constructing a ScopedSpan is one relaxed-ish
//    atomic load; AddArg and the destructor are branches on a cached
//    null. Hot paths may leave spans in place unconditionally.
//  * Session active: events append to a per-thread buffer owned by the
//    session — the only lock is taken once per (thread, session) pair at
//    buffer registration, never per event.
//
// Lifetime contract: exactly one session is active at a time (Start
// aborts if another session is live). A ScopedSpan binds to the session
// active at its construction and writes its end event there even if the
// session is stopped in between — so Stop() never unbalances B/E pairs —
// but the session object must outlive every span opened under it.
// Export (ToChromeJson / PhaseTable) is safe once the traced work has
// finished; it snapshots the buffers under the registration lock.
//
//   TraceSession session;
//   session.Start();
//   {
//     ScopedSpan span("determinize");
//     span.AddArg("nfa_states", nfa.num_states());
//     ...
//   }
//   session.Stop();
//   std::ofstream("trace.json") << session.ToChromeJson();
#ifndef STAP_BASE_TRACE_H_
#define STAP_BASE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace stap {

class TraceSession;

namespace trace_internal {
extern std::atomic<TraceSession*> g_active_session;
}  // namespace trace_internal

// The session spans bind to, or null when tracing is off. Acquire pairs
// with the release in Start() so a thread that sees the session also
// sees it fully constructed.
inline TraceSession* ActiveTraceSession() {
  return trace_internal::g_active_session.load(std::memory_order_acquire);
}

// Names the calling thread for its trace track (and for the OS via
// pthread_setname_np where available, truncated to the platform limit).
// Call before the thread records its first event: a session snapshots
// the name when the thread registers its buffer.
void SetCurrentThreadName(std::string name);

// The name set above, or "thread-<id>" if none was set.
std::string CurrentThreadName();

// Typed span argument; integers and doubles stay numbers in the JSON.
using TraceArgValue = std::variant<int64_t, double, std::string>;
using TraceArg = std::pair<std::string, TraceArgValue>;

struct TraceEvent {
  char phase = 'B';  // 'B' = begin, 'E' = end
  std::string name;  // empty on 'E' (the viewer matches by nesting)
  int64_t ts_us = 0;  // microseconds since session start
  std::vector<TraceArg> args;
};

class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Installs this session as the process-wide active one and starts the
  // clock. Aborts if another session is already active.
  void Start();

  // Deactivates the session; already-open spans still record their end
  // events here (see the lifetime contract above). Idempotent.
  void Stop();

  bool active() const {
    return ActiveTraceSession() == this;
  }

  // All events of one thread, in recording order.
  struct ThreadTrace {
    uint64_t tid = 0;
    std::string thread_name;
    std::vector<TraceEvent> events;
  };

  // Copies out every thread's events. Call after the traced work has
  // finished; threads registered first come first.
  std::vector<ThreadTrace> Snapshot() const;

  // {"traceEvents":[...]} — one thread_name metadata record per thread,
  // then the B/E events. Valid JSON whatever the span names/args.
  std::string ToChromeJson() const;

  // Provenance rollup: spans aggregated by (parent row, name), so a span
  // name that runs under two parents gets a row under each; depths beyond
  // `max_depth` are folded into their ancestors. Rows come in tree
  // preorder: each row is followed by its children, siblings in
  // first-appearance order. Integer args are summed across a row's spans;
  // wall time is the sum of span durations (concurrent spans can exceed
  // the session's wall clock).
  struct PhaseRow {
    std::string name;
    int depth = 0;
    int parent = -1;  // index of the parent row in the table; -1 at depth 0
    int64_t count = 0;
    double wall_ms = 0;
    std::vector<std::pair<std::string, int64_t>> int_args;
  };
  std::vector<PhaseRow> PhaseTable(int max_depth = 2) const;

  // Human-readable fixed-width rendering of PhaseTable.
  static std::string FormatPhaseTable(const std::vector<PhaseRow>& rows);

  // --- recording interface, used by ScopedSpan ---

  // The calling thread's event buffer, registered on first use. The
  // returned buffer is appended to only by its owning thread. Events are
  // stored in fixed-capacity blocks so an append never relocates earlier
  // events — long recordings (benchmark loops) stay O(1) per event with
  // no realloc copy storms.
  struct ThreadBuffer {
    static constexpr size_t kBlockEvents = 4096;
    uint64_t tid = 0;
    std::string thread_name;
    std::vector<std::vector<TraceEvent>> blocks;

    void Append(TraceEvent event) {
      if (blocks.empty() || blocks.back().size() == kBlockEvents) {
        blocks.emplace_back();
        blocks.back().reserve(kBlockEvents);
      }
      blocks.back().push_back(std::move(event));
    }
  };
  ThreadBuffer* BufferForCurrentThread();

  // Microseconds since Start().
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_{};
  uint64_t generation_ = 0;  // nonzero once started; keys the TL cache

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mutex_
};

// --- per-request slow-span capture --------------------------------------
//
// A TraceSession records whole-process sessions; a RequestCapture records
// the span tree of ONE request on ONE thread, cheaply enough to run on
// every request, so the serve daemon can retroactively keep the trace of a
// request that turned out slow. Events use fixed-size storage and a
// pre-reserved buffer: a request that stays under the slow threshold is
// Abort()ed without touching the heap (the buffer's capacity is reused
// across requests on the thread); only Detach() of a slow request moves
// the events out. Spans opened on other threads (pool workers fanned out
// by the request) are deliberately not captured — the capture is
// per-thread, and the request thread's own span tree already shows where
// the time went.

// Fixed-size capture record: long names and string/double args are
// dropped or truncated rather than allocated.
struct CaptureEvent {
  static constexpr int kNameBytes = 24;
  static constexpr int kKeyBytes = 16;
  static constexpr int kMaxArgs = 4;

  struct Arg {
    char key[kKeyBytes] = {};
    int64_t value = 0;
  };

  char phase = 'B';    // 'B' = begin, 'E' = end
  int64_t ts_us = 0;   // microseconds since capture start
  char name[kNameBytes] = {};  // 'B' only, NUL-terminated, truncated
  int num_args = 0;            // 'E' only
  Arg args[kMaxArgs] = {};
};

// One thread's reusable capture buffer. Begin() installs it as the
// thread's active capture (visible to ScopedSpan via
// ActiveRequestCapture()); Abort() throws the events away allocation-free;
// Detach() uninstalls and hands the events to the caller. Events past
// kMaxEvents are dropped and truncated() reports it.
class RequestCapture {
 public:
  static constexpr size_t kMaxEvents = 256;

  void Begin();
  void Abort();
  std::vector<CaptureEvent> Detach();

  bool active() const { return active_; }
  bool truncated() const { return truncated_; }

  // Microseconds since Begin().
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  // --- recording interface, used by ScopedSpan ---
  void AppendBegin(std::string_view name);
  void AppendEnd(const CaptureEvent::Arg* args, int num_args);

 private:
  std::chrono::steady_clock::time_point start_{};
  std::vector<CaptureEvent> events_;
  bool active_ = false;
  bool truncated_ = false;
};

namespace trace_internal {
// Inline (C++17) with its initializer in the header, so every translation
// unit accesses it directly rather than through an extern thread_local
// wrapper, which UBSan builds flagged as a null load.
inline thread_local RequestCapture* t_active_capture = nullptr;
}  // namespace trace_internal

// The calling thread's active capture, or null. One plain thread-local
// load: cheap enough for ScopedSpan's constructor on kernel hot paths.
inline RequestCapture* ActiveRequestCapture() {
  return trace_internal::t_active_capture;
}

// The calling thread's lazily-constructed capture buffer (not yet
// active); the serve request loop calls Begin()/Abort()/Detach() on it.
RequestCapture* ThreadRequestCapture();

// RAII span. Binds to the active session and the thread's active request
// capture at construction (no-op when neither is live); records 'B'
// immediately and 'E' — carrying the args added in between — at
// End()/destruction, always on the constructing thread, so begin/end
// events balance per thread by construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : session_(ActiveTraceSession()), capture_(ActiveRequestCapture()) {
    if (session_ != nullptr || capture_ != nullptr) Begin(name);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  bool active() const { return session_ != nullptr || capture_ != nullptr; }

  // Attaches a key/value to the span's end event. Cheap no-ops when the
  // span is inactive, so call sites need no guards. The capture path
  // keeps integer args only, in a fixed inline array (first kMaxArgs
  // win) — no allocation for requests that stay under the slow threshold.
  void AddArg(std::string_view key, int64_t value) {
    if (session_ != nullptr) {
      ReserveArgs();
      args_.emplace_back(key, value);
    }
    if (capture_ != nullptr) AddCaptureArg(key, value);
  }
  void AddArg(std::string_view key, int value) {
    AddArg(key, static_cast<int64_t>(value));
  }
  void AddArg(std::string_view key, uint64_t value) {
    AddArg(key, static_cast<int64_t>(value));
  }
  void AddArg(std::string_view key, double value) {
    if (session_ != nullptr) {
      ReserveArgs();
      args_.emplace_back(key, value);
    }
  }
  void AddArg(std::string_view key, std::string value) {
    if (session_ != nullptr) {
      ReserveArgs();
      args_.emplace_back(key, std::move(value));
    }
  }

  // Records the end event now; later AddArg/End/destruction are no-ops.
  // Lets sequential phases share one scope without nesting blocks.
  void End();

 private:
  void Begin(std::string_view name);

  // One up-front reservation instead of 1→2→4 growth mallocs: spans
  // carry a handful of args, added back-to-back on the hot path.
  void ReserveArgs() {
    if (args_.capacity() == 0) args_.reserve(6);
  }

  void AddCaptureArg(std::string_view key, int64_t value);

  TraceSession* session_;
  RequestCapture* capture_;
  TraceSession::ThreadBuffer* buffer_ = nullptr;
  std::vector<TraceArg> args_;
  CaptureEvent::Arg capture_args_[CaptureEvent::kMaxArgs];
  int num_capture_args_ = 0;
};

}  // namespace stap

#endif  // STAP_BASE_TRACE_H_
