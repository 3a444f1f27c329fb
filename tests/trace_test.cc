// Tests for the trace layer (base/trace.h): disabled sessions record
// nothing, begin/end events balance per thread — including under a
// concurrent ParallelFor — args round-trip with their types, the Chrome
// JSON export is well-formed, the phase-table rollup aggregates by
// (parent row, name), and worker threads appear under their stable names.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <cstdint>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "stap/approx/upper.h"
#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/gen/families.h"
#include "stap/regex/ast.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/minimize.h"
#include "stap/schema/text_format.h"

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

TEST(TraceTest, PhaseTableKeysRowsOnTheirParent) {
  // One span name under two parents (as Construction 3.1's phases run
  // under both approximations) gets a row under each parent, and every
  // row is printed under its own parent even when the parents
  // interleave and a child first appears after the other parent ran.
  TraceSession session;
  session.Start();
  for (int i = 0; i < 2; ++i) {
    {
      ScopedSpan upper("upper");
      ScopedSpan reduce("reduce");
      reduce.AddArg("n", 1);
    }
    {
      ScopedSpan lower("lower");
      ScopedSpan reduce("reduce");
      reduce.AddArg("n", 10);
    }
  }
  {
    ScopedSpan upper("upper");
    ScopedSpan late("late_child");
  }
  session.Stop();

  const std::vector<TraceSession::PhaseRow> rows = session.PhaseTable();
  ASSERT_EQ(rows.size(), 5u);
  const struct {
    const char* name;
    int depth, parent;
    int64_t count, n;
  } expected[] = {{"upper", 0, -1, 3, 0},
                  {"reduce", 1, 0, 2, 2},
                  {"late_child", 1, 0, 1, 0},
                  {"lower", 0, -1, 2, 0},
                  {"reduce", 1, 3, 2, 20}};
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(rows[i].name, expected[i].name);
    EXPECT_EQ(rows[i].depth, expected[i].depth);
    EXPECT_EQ(rows[i].parent, expected[i].parent);
    EXPECT_EQ(rows[i].count, expected[i].count);
    int64_t n = 0;
    for (const auto& [key, value] : rows[i].int_args) {
      if (key == "n") n = value;
    }
    EXPECT_EQ(n, expected[i].n);
  }
  const std::string table = TraceSession::FormatPhaseTable(rows);
  const size_t upper_reduce = table.find("  reduce");
  const size_t late = table.find("  late_child");
  const size_t lower = table.find("\nlower");
  const size_t lower_reduce = table.find("  reduce", lower);
  EXPECT_LT(upper_reduce, late);
  EXPECT_LT(late, lower);
  EXPECT_NE(lower_reduce, std::string::npos);
  EXPECT_NE(table.find("n=20"), std::string::npos);
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

TEST(TraceTest, MinimizeSpanSplittersMatchTheRegistry) {
  // The `minimize` span reports the refinement's splitters, and they are
  // the same count the minimize.splitters counter gains. The input is the
  // (a+b)* a (a+b)^4 subset DFA: 32 states, all distinguishable.
  RegexPtr ab = Regex::Union({Regex::Symbol(0), Regex::Symbol(1)});
  std::vector<RegexPtr> parts;
  parts.push_back(Regex::Star(ab));
  parts.push_back(Regex::Symbol(0));
  for (int i = 0; i < 4; ++i) parts.push_back(ab);
  const Dfa dfa = *Determinize(
      *GlushkovAutomaton(*Regex::Concat(std::move(parts)), 2));

  Counter* const splitters = GetCounter("minimize.splitters");
  const int64_t before = splitters->value();
  TraceSession session;
  session.Start();
  const Dfa minimal = *Minimize(dfa);
  session.Stop();
  EXPECT_EQ(minimal.num_states(), 32);

  std::vector<TraceSession::PhaseRow> rows = session.PhaseTable();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "minimize");
  std::map<std::string, int64_t> args(rows[0].int_args.begin(),
                                      rows[0].int_args.end());
  EXPECT_GE(args["splitters"], 1);
  EXPECT_EQ(args["splitters"], splitters->value() - before);
  EXPECT_EQ(args["states_out"], 32);
}

TEST(TraceTest, ApproxPipelineShowsEveryStageAtTopLevel) {
  // What `stap approx` and `stap explain` run: Construction 3.1, then the
  // one printer, whose minimization and printing are phases of their own.
  const Edtd schema = Theorem32Family(3);
  TraceSession session;
  session.Start();
  StatusOr<DfaXsd> xsd = MinimalUpperApproximation(schema, nullptr);
  StatusOr<std::string> text =
      xsd.ok() ? XsdToText(*xsd, nullptr) : xsd.status();
  session.Stop();
  ASSERT_TRUE(text.ok()) << text.status();

  std::vector<std::string> top_level;
  for (const TraceSession::PhaseRow& row : session.PhaseTable()) {
    if (row.depth == 0) top_level.push_back(row.name);
  }
  EXPECT_EQ(top_level,
            (std::vector<std::string>{"approx.upper", "schema.minimize_xsd",
                                      "schema.print"}));

  // The minimization span says where its work went: the states it was
  // given, the states left after reduction, the refinement splitters, and
  // the canonical result (2^(n+1)+1 states for Theorem 3.2's family).
  std::map<std::string, int64_t> args;
  for (const TraceSession::PhaseRow& row : session.PhaseTable()) {
    if (row.name != "schema.minimize_xsd") continue;
    for (const auto& [key, value] : row.int_args) args[key] = value;
  }
  EXPECT_EQ(args["states_in"], xsd->automaton.num_states());
  EXPECT_EQ(args["xsd_states"], 17);
  EXPECT_GE(args["states_reduced"], args["xsd_states"]);
  EXPECT_LE(args["states_reduced"], args["states_in"]);
  EXPECT_GE(args["splitters"], 1);
}

TEST(TraceTest, ContentRuleCallsMatchTheRegistry) {
  // The second cross-check of `stap explain`: the distinct_contents args
  // of the upper.merge_contents spans sum to the approx.content_rules
  // delta. On Theorem 3.2's family the 2^(n+1) merged states share two
  // distinct image sets, so the rule runs twice, not once per state.
  const Edtd schema = Theorem32Family(8);
  Counter* const rules = GetCounter("approx.content_rules");
  const int64_t before = rules->value();
  TraceSession session;
  session.Start();
  StatusOr<DfaXsd> xsd = MinimalUpperApproximation(schema, nullptr);
  StatusOr<std::string> text =
      xsd.ok() ? XsdToText(*xsd, nullptr) : xsd.status();
  session.Stop();
  ASSERT_TRUE(text.ok()) << text.status();
  const int64_t registry_delta = rules->value() - before;

  std::map<std::string, int64_t> merge_args, minimize_args;
  for (const TraceSession::PhaseRow& row :
       session.PhaseTable(/*max_depth=*/1 << 20)) {
    if (row.name == "upper.merge_contents") {
      for (const auto& [key, value] : row.int_args) merge_args[key] += value;
    } else if (row.name == "schema.minimize_xsd") {
      for (const auto& [key, value] : row.int_args) minimize_args[key] += value;
    }
  }
  EXPECT_EQ(merge_args["content_rules"], registry_delta);
  // The union rule alone runs once per distinct set.
  EXPECT_EQ(merge_args["distinct_contents"], registry_delta);
  EXPECT_EQ(merge_args["merged_states"], xsd->automaton.num_states());
  EXPECT_LE(registry_delta, 2);
  EXPECT_GE(minimize_args["distinct_contents"], 1);
  EXPECT_LT(minimize_args["distinct_contents"], minimize_args["states_in"]);
}

// The distinct_contents arg of the one schema.print span XsdToText opens
// on `xsd`: its DfaToRegex runs.
int64_t PrintedDistinctContents(const DfaXsd& xsd) {
  TraceSession session;
  session.Start();
  StatusOr<std::string> text = XsdToText(xsd, nullptr);
  session.Stop();
  EXPECT_TRUE(text.ok()) << text.status();
  int64_t distinct = -1;
  for (const TraceSession::PhaseRow& row : session.PhaseTable()) {
    if (row.name != "schema.print") continue;
    for (const auto& [key, value] : row.int_args) {
      if (key == "distinct_contents") distinct = value;
    }
  }
  EXPECT_GE(distinct, 0) << "no schema.print span with distinct_contents";
  return distinct;
}

TEST(TraceTest, PrinterEliminatesEachDistinctContentOnce) {
  // Theorem 3.2's approximation has 2^(n+1)+1 states but two distinct
  // contents, so the printer's state eliminations must not grow with n.
  std::set<int64_t> runs;
  for (int n = 5; n <= 10; ++n) {
    StatusOr<DfaXsd> xsd = MinimalUpperApproximation(Theorem32Family(n),
                                                     nullptr);
    ASSERT_TRUE(xsd.ok()) << xsd.status();
    runs.insert(PrintedDistinctContents(*xsd));
  }
  EXPECT_EQ(runs.size(), 1u);
  EXPECT_GE(*runs.begin(), 1);
}

TEST(TraceTest, PrinterRunsAtMostOneEliminationPerDistinctContent) {
  // On a single-type input the printer eliminates at most once per
  // distinct content of the minimized XSD, counted here independently.
  for (const Edtd& schema :
       {Theorem32Family(6), CountedFamily(5, 10), Theorem411Dtd()}) {
    StatusOr<DfaXsd> xsd = MinimalUpperApproximation(schema, nullptr);
    ASSERT_TRUE(xsd.ok()) << xsd.status();
    StatusOr<DfaXsd> minimized = MinimizeXsd(*xsd, nullptr);
    ASSERT_TRUE(minimized.ok()) << minimized.status();
    std::set<std::string> contents;
    for (int q = 1; q < minimized->automaton.num_states(); ++q) {
      contents.insert(minimized->content[q].ToString());
    }
    EXPECT_LE(PrintedDistinctContents(*minimized),
              static_cast<int64_t>(contents.size()));
  }
}

}  // namespace
}  // namespace stap
