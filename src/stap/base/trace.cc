#include "stap/base/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "stap/base/check.h"
#include "stap/base/string_util.h"

#if defined(__linux__) || defined(__APPLE__)
#include <pthread.h>
#endif

namespace stap {

namespace trace_internal {
std::atomic<TraceSession*> g_active_session{nullptr};
}  // namespace trace_internal

namespace {

// Monotone session stamp: Start() assigns the next value, and the
// thread-local buffer cache keys on it, so a thread never writes into a
// buffer belonging to an earlier session that happens to share the
// address of the current one.
std::atomic<uint64_t> g_next_generation{1};

uint64_t CurrentThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t id = next.fetch_add(1);
  return id;
}

std::string& ThreadNameStorage() {
  thread_local std::string name;
  return name;
}

struct ThreadBufferCache {
  uint64_t generation = 0;
  TraceSession::ThreadBuffer* buffer = nullptr;
};

ThreadBufferCache& BufferCache() {
  thread_local ThreadBufferCache cache;
  return cache;
}

void AppendJsonValue(std::ostringstream* os, const TraceArgValue& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    *os << *i;
  } else if (const auto* d = std::get_if<double>(&value)) {
    if (std::isfinite(*d)) {
      *os << *d;
    } else {
      *os << 0;  // JSON has no NaN/Inf literals
    }
  } else {
    *os << '"' << JsonEscape(std::get<std::string>(value)) << '"';
  }
}

}  // namespace

void SetCurrentThreadName(std::string name) {
  ThreadNameStorage() = std::move(name);
#if defined(__linux__)
  // The kernel limit is 16 bytes including the terminator; longer names
  // make pthread_setname_np fail, so truncate instead.
  std::string os_name = ThreadNameStorage().substr(0, 15);
  pthread_setname_np(pthread_self(), os_name.c_str());
#elif defined(__APPLE__)
  pthread_setname_np(ThreadNameStorage().c_str());
#endif
}

std::string CurrentThreadName() {
  const std::string& name = ThreadNameStorage();
  if (!name.empty()) return name;
  return "thread-" + std::to_string(CurrentThreadId());
}

TraceSession::~TraceSession() { Stop(); }

void TraceSession::Start() {
  STAP_CHECK(ActiveTraceSession() == nullptr);
  start_ = std::chrono::steady_clock::now();
  generation_ = g_next_generation.fetch_add(1);
  trace_internal::g_active_session.store(this, std::memory_order_release);
}

void TraceSession::Stop() {
  TraceSession* expected = this;
  trace_internal::g_active_session.compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel);
}

TraceSession::ThreadBuffer* TraceSession::BufferForCurrentThread() {
  ThreadBufferCache& cache = BufferCache();
  if (cache.generation == generation_) return cache.buffer;
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = CurrentThreadId();
  buffer->thread_name = CurrentThreadName();
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  cache.generation = generation_;
  cache.buffer = raw;
  return raw;
}

std::vector<TraceSession::ThreadTrace> TraceSession::Snapshot() const {
  std::vector<ThreadTrace> result;
  std::lock_guard<std::mutex> lock(mutex_);
  result.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadTrace trace{buffer->tid, buffer->thread_name, {}};
    size_t total = 0;
    for (const auto& block : buffer->blocks) total += block.size();
    trace.events.reserve(total);
    for (const auto& block : buffer->blocks) {
      trace.events.insert(trace.events.end(), block.begin(), block.end());
    }
    result.push_back(std::move(trace));
  }
  return result;
}

std::string TraceSession::ToChromeJson() const {
  const std::vector<ThreadTrace> threads = Snapshot();
  std::ostringstream os;
  os.precision(17);
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const ThreadTrace& thread : threads) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << thread.tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << JsonEscape(thread.thread_name) << "\"}}";
  }
  for (const ThreadTrace& thread : threads) {
    for (const TraceEvent& event : thread.events) {
      sep();
      os << "{\"ph\":\"" << event.phase << "\",\"pid\":1,\"tid\":"
         << thread.tid << ",\"ts\":" << event.ts_us;
      if (event.phase == 'B') {
        os << ",\"cat\":\"stap\",\"name\":\"" << JsonEscape(event.name)
           << '"';
      }
      if (!event.args.empty()) {
        os << ",\"args\":{";
        for (size_t i = 0; i < event.args.size(); ++i) {
          if (i > 0) os << ',';
          os << '"' << JsonEscape(event.args[i].first) << "\":";
          AppendJsonValue(&os, event.args[i].second);
        }
        os << '}';
      }
      os << '}';
    }
  }
  os << "]}\n";
  return os.str();
}

std::vector<TraceSession::PhaseRow> TraceSession::PhaseTable(
    int max_depth) const {
  std::vector<PhaseRow> rows;
  std::map<std::pair<int, std::string>, size_t> row_index;
  // Per-thread open-span stack entry: the row the span feeds (or npos
  // when deeper than max_depth) and its begin timestamp.
  struct Open {
    size_t row;
    int64_t begin_us;
  };
  constexpr size_t kNoRow = static_cast<size_t>(-1);
  for (const ThreadTrace& thread : Snapshot()) {
    std::vector<Open> stack;
    for (const TraceEvent& event : thread.events) {
      if (event.phase == 'B') {
        const int depth = static_cast<int>(stack.size());
        size_t row = kNoRow;
        if (depth < max_depth) {
          auto [it, inserted] =
              row_index.try_emplace({depth, event.name}, rows.size());
          if (inserted) {
            rows.push_back(PhaseRow{event.name, depth, 0, 0, {}});
          }
          row = it->second;
        }
        stack.push_back(Open{row, event.ts_us});
        continue;
      }
      if (event.phase != 'E' || stack.empty()) continue;
      const Open open = stack.back();
      stack.pop_back();
      if (open.row == kNoRow) continue;
      PhaseRow& row = rows[open.row];
      ++row.count;
      row.wall_ms += static_cast<double>(event.ts_us - open.begin_us) / 1e3;
      for (const TraceArg& arg : event.args) {
        if (const auto* i = std::get_if<int64_t>(&arg.second)) {
          auto it = std::find_if(
              row.int_args.begin(), row.int_args.end(),
              [&](const auto& entry) { return entry.first == arg.first; });
          if (it == row.int_args.end()) {
            row.int_args.emplace_back(arg.first, *i);
          } else {
            it->second += *i;
          }
        }
      }
    }
  }
  return rows;
}

std::string TraceSession::FormatPhaseTable(
    const std::vector<PhaseRow>& rows) {
  constexpr int kNameWidth = 34;
  std::ostringstream os;
  os << "phase";
  for (int i = 5; i < kNameWidth; ++i) os << ' ';
  os << "  calls    wall ms  detail\n";
  for (const PhaseRow& row : rows) {
    std::string name(static_cast<size_t>(row.depth) * 2, ' ');
    name += row.name;
    if (static_cast<int>(name.size()) > kNameWidth) {
      name.resize(kNameWidth);
    }
    os << name;
    for (int i = static_cast<int>(name.size()); i < kNameWidth; ++i) {
      os << ' ';
    }
    std::string calls = std::to_string(row.count);
    for (int i = static_cast<int>(calls.size()); i < 7; ++i) os << ' ';
    os << calls;
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%10.2f", row.wall_ms);
    os << wall << "  ";
    bool first = true;
    for (const auto& [key, value] : row.int_args) {
      if (!first) os << ' ';
      os << key << '=' << value;
      first = false;
    }
    os << '\n';
  }
  return os.str();
}

namespace {

// Bounded copy into a fixed char field; always NUL-terminates.
void CopyTruncated(char* dst, size_t dst_bytes, std::string_view src) {
  const size_t n = std::min(src.size(), dst_bytes - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

void RequestCapture::Begin() {
  // First use on a thread reserves the buffer once; every later request
  // on the thread reuses the capacity, so steady-state Begin/Abort cycles
  // never allocate.
  if (events_.capacity() < kMaxEvents) events_.reserve(kMaxEvents);
  events_.clear();
  truncated_ = false;
  active_ = true;
  start_ = std::chrono::steady_clock::now();
  trace_internal::t_active_capture = this;
}

void RequestCapture::Abort() {
  active_ = false;
  events_.clear();
  if (trace_internal::t_active_capture == this) {
    trace_internal::t_active_capture = nullptr;
  }
}

std::vector<CaptureEvent> RequestCapture::Detach() {
  active_ = false;
  if (trace_internal::t_active_capture == this) {
    trace_internal::t_active_capture = nullptr;
  }
  std::vector<CaptureEvent> out = std::move(events_);
  events_ = {};
  return out;
}

void RequestCapture::AppendBegin(std::string_view name) {
  if (!active_) return;
  if (events_.size() >= kMaxEvents) {
    truncated_ = true;
    return;
  }
  CaptureEvent& event = events_.emplace_back();
  event.phase = 'B';
  event.ts_us = NowUs();
  CopyTruncated(event.name, sizeof(event.name), name);
}

void RequestCapture::AppendEnd(const CaptureEvent::Arg* args, int num_args) {
  if (!active_) return;
  if (events_.size() >= kMaxEvents) {
    truncated_ = true;
    return;
  }
  CaptureEvent& event = events_.emplace_back();
  event.phase = 'E';
  event.ts_us = NowUs();
  event.num_args = std::min(num_args, CaptureEvent::kMaxArgs);
  for (int i = 0; i < event.num_args; ++i) event.args[i] = args[i];
}

RequestCapture* ThreadRequestCapture() {
  thread_local RequestCapture capture;
  return &capture;
}

void ScopedSpan::Begin(std::string_view name) {
  if (session_ != nullptr) {
    buffer_ = session_->BufferForCurrentThread();
    buffer_->Append(
        TraceEvent{'B', std::string(name), session_->NowUs(), {}});
  }
  if (capture_ != nullptr) capture_->AppendBegin(name);
}

void ScopedSpan::End() {
  if (session_ != nullptr) {
    buffer_->Append(
        TraceEvent{'E', std::string(), session_->NowUs(), std::move(args_)});
    session_ = nullptr;
  }
  if (capture_ != nullptr) {
    capture_->AppendEnd(capture_args_, num_capture_args_);
    capture_ = nullptr;
  }
}

void ScopedSpan::AddCaptureArg(std::string_view key, int64_t value) {
  if (num_capture_args_ >= CaptureEvent::kMaxArgs) return;
  CaptureEvent::Arg& arg = capture_args_[num_capture_args_++];
  CopyTruncated(arg.key, sizeof(arg.key), key);
  arg.value = value;
}

}  // namespace stap
