// Tests for the trace layer (base/trace.h): disabled sessions record
// nothing, begin/end events balance per thread — including under a
// concurrent ParallelFor — args round-trip with their types, the Chrome
// JSON export is well-formed, the phase-table rollup aggregates by
// (depth, name), and worker threads appear under their stable names.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/regex/ast.h"
#include "stap/regex/glushkov.h"

namespace stap {
namespace {

// Minimal JSON well-formedness check: string/escape discipline plus
// bracket balance outside strings. Not a grammar check, but it rejects
// everything a broken escaper or unbalanced emitter would produce.
bool JsonWellFormed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control byte inside a string
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

// Per-thread B/E discipline: every end matches an open begin, nothing
// stays open, and timestamps never run backwards within the thread.
void ExpectBalanced(const TraceSession::ThreadTrace& thread) {
  int depth = 0;
  int64_t last_ts = 0;
  for (const TraceEvent& event : thread.events) {
    EXPECT_GE(event.ts_us, last_ts) << "thread " << thread.tid;
    last_ts = event.ts_us;
    if (event.phase == 'B') {
      ++depth;
    } else {
      ASSERT_EQ(event.phase, 'E');
      ASSERT_GT(depth, 0) << "end without begin on thread " << thread.tid;
      --depth;
    }
  }
  EXPECT_EQ(depth, 0) << "unclosed span on thread " << thread.tid;
}

TEST(TraceTest, DisabledSessionRecordsNothing) {
  ASSERT_EQ(ActiveTraceSession(), nullptr);
  {
    ScopedSpan span("ignored");
    EXPECT_FALSE(span.active());
    span.AddArg("n", 42);
    span.End();
  }
  TraceSession session;
  EXPECT_FALSE(session.active());
  EXPECT_TRUE(session.Snapshot().empty());
  // The never-started session still exports an empty, valid document.
  EXPECT_TRUE(JsonWellFormed(session.ToChromeJson()));
  EXPECT_TRUE(session.PhaseTable().empty());
}

TEST(TraceTest, SpansBalanceAndNest) {
  TraceSession session;
  session.Start();
  EXPECT_TRUE(session.active());
  {
    ScopedSpan outer("outer");
    EXPECT_TRUE(outer.active());
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner("inner"); }
  }
  session.Stop();
  EXPECT_FALSE(session.active());

  std::vector<TraceSession::ThreadTrace> threads = session.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  ExpectBalanced(threads[0]);
  ASSERT_EQ(threads[0].events.size(), 6u);
  EXPECT_EQ(threads[0].events[0].name, "outer");
  EXPECT_EQ(threads[0].events[1].name, "inner");
}

TEST(TraceTest, EndIsIdempotentAndSurvivesStop) {
  TraceSession session;
  session.Start();
  {
    ScopedSpan span("crosses-stop");
    ScopedSpan early("ended-early");
    early.End();
    early.End();  // second End is a no-op
    session.Stop();
    // `span` still ends into the session it bound at construction, so
    // the recording stays balanced even though the session stopped.
  }
  std::vector<TraceSession::ThreadTrace> threads = session.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  ExpectBalanced(threads[0]);
  EXPECT_EQ(threads[0].events.size(), 4u);
}

TEST(TraceTest, ArgsRoundTripWithTheirTypes) {
  TraceSession session;
  session.Start();
  {
    ScopedSpan span("args");
    span.AddArg("states", int64_t{1} << 40);
    span.AddArg("small", 7);
    span.AddArg("sizes", size_t{9});
    span.AddArg("ratio", 0.25);
    span.AddArg("label", std::string("a\"b\\c\nd"));
  }
  session.Stop();

  std::vector<TraceSession::ThreadTrace> threads = session.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 2u);
  const TraceEvent& end = threads[0].events[1];
  ASSERT_EQ(end.args.size(), 5u);
  EXPECT_EQ(std::get<int64_t>(end.args[0].second), int64_t{1} << 40);
  EXPECT_EQ(std::get<int64_t>(end.args[1].second), 7);
  EXPECT_EQ(std::get<int64_t>(end.args[2].second), 9);
  EXPECT_DOUBLE_EQ(std::get<double>(end.args[3].second), 0.25);
  EXPECT_EQ(std::get<std::string>(end.args[4].second), "a\"b\\c\nd");

  // The JSON stays well-formed with the hostile string arg, keeps
  // integers as numbers, and escapes the string.
  std::string json = session.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"states\":1099511627776"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(TraceTest, ChromeJsonHasHeaderAndThreadMetadata) {
  TraceSession session;
  session.Start();
  { ScopedSpan span("solo"); }
  session.Stop();
  std::string json = session.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stap\""), std::string::npos);
}

TEST(TraceTest, ConcurrentParallelForStaysBalancedPerThread) {
  TraceSession session;
  std::atomic<int64_t> sum{0};
  {
    // Pool scoped so every worker has joined — and flushed its buffered
    // events — before the snapshot reads the buffers.
    ThreadPool pool(4);
    session.Start();
    for (int round = 0; round < 4; ++round) {
      ScopedSpan round_span("round");
      pool.ParallelFor(64, [&](int i) {
        ScopedSpan task("task");
        task.AddArg("i", i);
        sum.fetch_add(i, std::memory_order_relaxed);
        // Slow enough that the caller cannot drain the whole range
        // before the workers wake up and claim chunks of their own.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
    session.Stop();
  }
  EXPECT_EQ(sum.load(), 4 * (64 * 63) / 2);

  int64_t tasks = 0;
  bool saw_worker = false;
  for (const TraceSession::ThreadTrace& thread : session.Snapshot()) {
    ExpectBalanced(thread);
    // Every recording thread is the caller or a named pool worker.
    if (thread.thread_name.rfind("stap-worker-", 0) == 0) saw_worker = true;
    for (const TraceEvent& event : thread.events) {
      if (event.phase == 'B' && event.name == "task") ++tasks;
    }
  }
  EXPECT_EQ(tasks, 4 * 64);
  EXPECT_TRUE(saw_worker);
}

TEST(TraceTest, ThreadNamesLabelTheTracks) {
  TraceSession session;
  session.Start();
  std::thread worker([&] {
    SetCurrentThreadName("trace-test-thread");
    EXPECT_EQ(CurrentThreadName(), "trace-test-thread");
    ScopedSpan span("named");
  });
  worker.join();
  session.Stop();

  bool found = false;
  for (const TraceSession::ThreadTrace& thread : session.Snapshot()) {
    if (thread.thread_name == "trace-test-thread") found = true;
  }
  EXPECT_TRUE(found);
  std::string json = session.ToChromeJson();
  EXPECT_NE(json.find("\"name\":\"trace-test-thread\""), std::string::npos);
}

TEST(TraceTest, PhaseTableAggregatesByDepthAndName) {
  TraceSession session;
  session.Start();
  for (int i = 0; i < 3; ++i) {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
    inner.AddArg("n", 2);
    ScopedSpan deep("deep");  // depth 2: folded out at the default depth
  }
  session.Stop();

  std::vector<TraceSession::PhaseRow> rows = session.PhaseTable();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "outer");
  EXPECT_EQ(rows[0].depth, 0);
  EXPECT_EQ(rows[0].count, 3);
  EXPECT_EQ(rows[1].name, "inner");
  EXPECT_EQ(rows[1].depth, 1);
  EXPECT_EQ(rows[1].count, 3);
  ASSERT_EQ(rows[1].int_args.size(), 1u);
  EXPECT_EQ(rows[1].int_args[0].first, "n");
  EXPECT_EQ(rows[1].int_args[0].second, 6);  // summed across the 3 spans

  // Deeper cutoffs surface the folded span; the rendering mentions every
  // visible row.
  EXPECT_EQ(session.PhaseTable(/*max_depth=*/3).size(), 3u);
  EXPECT_EQ(session.PhaseTable(/*max_depth=*/1).size(), 1u);
  std::string table = TraceSession::FormatPhaseTable(rows);
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("  inner"), std::string::npos);
  EXPECT_NE(table.find("n=6"), std::string::npos);
}

TEST(TraceTest, DeterminizeSpanMatchesTheMetricsRegistry) {
  // The provenance contract behind `stap explain`: the span's
  // states_created arg equals the registry counter's delta for the same
  // call, so the phase table can be cross-checked against the metrics.
  RegexPtr ab = Regex::Union({Regex::Symbol(0), Regex::Symbol(1)});
  std::vector<RegexPtr> parts;
  parts.push_back(Regex::Star(ab));
  parts.push_back(Regex::Symbol(0));
  for (int i = 0; i < 5; ++i) parts.push_back(ab);
  Nfa nfa = *GlushkovAutomaton(*Regex::Concat(std::move(parts)),
                               /*num_symbols=*/2);

  Counter* const states = GetCounter("determinize.states_created");
  const int64_t before = states->value();
  TraceSession session;
  session.Start();
  Dfa dfa = *Determinize(nfa);
  session.Stop();
  const int64_t registry_delta = states->value() - before;
  EXPECT_EQ(registry_delta, dfa.num_states());

  std::vector<TraceSession::PhaseRow> rows = session.PhaseTable();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "determinize");
  int64_t span_states = 0;
  for (const auto& [key, value] : rows[0].int_args) {
    if (key == "states_created") span_states = value;
  }
  EXPECT_EQ(span_states, registry_delta);
}

}  // namespace
}  // namespace stap
