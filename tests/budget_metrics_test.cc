// Tests for the resource-budget layer and the metrics registry: quota
// and deadline exhaustion surface as kResourceExhausted in bounded time
// on the paper's exponential family, null/unlimited budgets change
// nothing, exhaustion latches across threads, and the metrics dump stays
// parseable and resettable.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/automata/antichain.h"
#include "stap/automata/determinize.h"
#include "stap/base/budget.h"
#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/gen/families.h"
#include "stap/regex/ast.h"
#include "stap/regex/glushkov.h"
#include "stap/schema/reduce.h"

namespace stap {
namespace {

// The Glushkov NFA of (a+b)* a (a+b)^n (Theorem 3.2's string language):
// determinization necessarily builds 2^(n+1) states, the canonical
// workload a budget must be able to stop.
Nfa LastLetterNfa(int n) {
  RegexPtr ab = Regex::Union({Regex::Symbol(0), Regex::Symbol(1)});
  std::vector<RegexPtr> parts;
  parts.push_back(Regex::Star(ab));
  parts.push_back(Regex::Symbol(0));
  for (int i = 0; i < n; ++i) parts.push_back(ab);
  return *GlushkovAutomaton(*Regex::Concat(std::move(parts)),
                            /*num_symbols=*/2);
}

TEST(BudgetTest, StateQuotaStopsDeterminization) {
  Nfa nfa = LastLetterNfa(20);  // 2^21 subsets without a cap
  Budget budget;
  budget.set_max_states(1000);
  StatusOr<Dfa> dfa = Determinize(nfa, &budget);
  ASSERT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(dfa.status().message().find("budget exhausted"),
            std::string::npos)
      << dfa.status();
  // The construction stopped close to the quota, not far past it.
  EXPECT_GE(budget.states_charged(), 1000);
  EXPECT_LE(budget.states_charged(), 1100);
}

TEST(BudgetTest, DeadlineStopsApproximationInBoundedTime) {
  // The acceptance bar from the issue: a budget-exhausted run on the
  // family returns a clean Status within a small factor of the deadline
  // instead of grinding through the exponential construction.
  Edtd family = ReduceEdtd(Theorem32Family(16));
  Budget budget;
  budget.set_deadline_ms(100);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<DfaXsd> xsd = MinimalUpperApproximation(family, &budget);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(xsd.ok());
  EXPECT_EQ(xsd.status().code(), StatusCode::kResourceExhausted);
  // Generous bound (CI machines vary), but far below the unbudgeted
  // runtime of the n=16 instance.
  EXPECT_LT(elapsed_ms, 2000.0) << xsd.status();
}

TEST(BudgetTest, NullAndUnlimitedBudgetsAgree) {
  Nfa nfa = LastLetterNfa(6);
  StatusOr<Dfa> via_null = Determinize(nfa);
  ASSERT_TRUE(via_null.ok());

  Budget unlimited;
  StatusOr<Dfa> via_unlimited = Determinize(nfa, &unlimited);
  ASSERT_TRUE(via_unlimited.ok());
  EXPECT_EQ(via_unlimited->num_states(), via_null->num_states());
  EXPECT_EQ(unlimited.states_charged(), via_null->num_states());
}

TEST(BudgetTest, ExhaustionLatchesAndKeepsTheFirstReason) {
  Budget budget;
  budget.set_max_sets(2);
  EXPECT_TRUE(budget.ChargeSets().ok());
  EXPECT_TRUE(budget.ChargeSets().ok());
  Status first = budget.ChargeSets();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  // Later charges of either kind fail fast with the original reason.
  Status later = budget.ChargeStates();
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.message(), first.message());
  EXPECT_FALSE(budget.CheckDeadline().ok());
}

TEST(BudgetTest, NullTolerantStaticsAreUnlimited) {
  EXPECT_TRUE(Budget::ChargeStates(nullptr, 1 << 30).ok());
  EXPECT_TRUE(Budget::ChargeSets(nullptr, 1 << 30).ok());
  EXPECT_TRUE(Budget::CheckDeadline(nullptr).ok());
}

TEST(BudgetTest, AntichainInclusionRespectsTheBudget) {
  Nfa nfa = LastLetterNfa(12);
  Budget budget;
  budget.set_max_sets(10);
  StatusOr<bool> included = AntichainIncluded(nfa, nfa, &budget);
  ASSERT_FALSE(included.ok());
  EXPECT_EQ(included.status().code(), StatusCode::kResourceExhausted);
  // With room to finish, the same call decides the inclusion.
  Budget enough;
  StatusOr<bool> ok = AntichainIncluded(nfa, nfa, &enough);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST(SharedStatusTest, KeepsTheFirstErrorAndFlipsOk) {
  SharedStatus shared;
  EXPECT_TRUE(shared.ok());
  EXPECT_TRUE(shared.ToStatus().ok());
  shared.Update(Status());  // ok updates are no-ops
  shared.Update(ResourceExhaustedError("first"));
  shared.Update(InvalidArgumentError("second"));
  EXPECT_FALSE(shared.ok());
  EXPECT_EQ(shared.ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shared.ToStatus().message(), "first");
}

TEST(MetricsTest, CountersAccumulateAndSurviveReset) {
  Counter* counter = GetCounter("test.budget_metrics.counter");
  counter->Reset();
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42);
  // Reset zeroes the value; the pointer stays valid (cached lookups).
  MetricsRegistry::Global()->Reset();
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(GetCounter("test.budget_metrics.counter"), counter);
}

TEST(MetricsTest, HistogramTracksCountSumMinMax) {
  Histogram* histogram = GetHistogram("test.budget_metrics.histogram");
  histogram->Reset();
  histogram->Record(0.5);
  histogram->Record(3.0);
  histogram->Record(100.0);
  Histogram::Snapshot snapshot = histogram->snapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_DOUBLE_EQ(snapshot.sum, 103.5);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.max, 100.0);
  int64_t total = 0;
  for (int64_t bucket : snapshot.buckets) total += bucket;
  EXPECT_EQ(total, 3);
}

TEST(MetricsTest, ScopedTimerRecordsOnDestruction) {
  Histogram* histogram = GetHistogram("test.budget_metrics.timer");
  histogram->Reset();
  { ScopedTimer timer(histogram); }
  { ScopedTimer disabled(nullptr); }  // null histogram is a no-op
  EXPECT_EQ(histogram->snapshot().count, 1);
}

TEST(MetricsTest, KernelsPopulateTheRegistry) {
  MetricsRegistry::Global()->Reset();
  Nfa nfa = LastLetterNfa(6);
  Dfa dfa = *Determinize(nfa);
  EXPECT_GE(GetCounter("determinize.calls")->value(), 1);
  EXPECT_GE(GetCounter("determinize.states_created")->value(),
            dfa.num_states());
}

TEST(MetricsTest, JsonDumpIsWellFormed) {
  MetricsRegistry::Global()->Reset();
  GetCounter("test.json \"quoted\\name")->Increment(7);
  GetHistogram("test.json.histogram")->Record(2.5);
  std::string json = MetricsRegistry::Global()->ToJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of(" \n")], '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // The awkward name is escaped, not emitted raw.
  EXPECT_NE(json.find("test.json \\\"quoted\\\\name"), std::string::npos);
  // Braces balance (JsonEscape never emits bare braces).
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsTest, PrometheusDumpExposesCountersAndHistograms) {
  MetricsRegistry::Global()->Reset();
  GetCounter("test.prom-counter")->Increment(5);
  Histogram* histogram = GetHistogram("test.prom.histogram");
  histogram->Record(0.5);  // bucket 0: < 1
  histogram->Record(3.0);  // bucket 2: [2, 4)
  histogram->Record(3.5);
  std::string text = MetricsRegistry::Global()->ToPrometheusText();

  // Names are prefixed and sanitized to the exposition charset.
  EXPECT_NE(text.find("# TYPE stap_test_prom_counter counter\n"
                      "stap_test_prom_counter 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE stap_test_prom_histogram histogram\n"),
            std::string::npos)
      << text;
  // Cumulative buckets: le="1" sees the sub-1 sample, le="2" adds
  // nothing, le="4" has all three; +Inf and _count agree on the total.
  EXPECT_NE(text.find("stap_test_prom_histogram_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stap_test_prom_histogram_bucket{le=\"2\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stap_test_prom_histogram_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stap_test_prom_histogram_sum 7\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("stap_test_prom_histogram_count 3\n"),
            std::string::npos)
      << text;
  // Cumulative counts never decrease across the bucket series.
  const std::string bucket_prefix = "stap_test_prom_histogram_bucket{le=";
  int64_t previous = 0;
  for (size_t pos = text.find(bucket_prefix); pos != std::string::npos;
       pos = text.find(bucket_prefix, pos + 1)) {
    size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    int64_t value = std::atoll(text.c_str() + space + 2);
    EXPECT_GE(value, previous) << text;
    previous = value;
  }
  // Every line is a comment or a `name value` sample (no JSON leakage).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_EQ(line.rfind("stap_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(ThreadPoolTest, DefaultThreadsHonorsTheEnvironmentOverride) {
  ASSERT_EQ(setenv("STAP_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  ASSERT_EQ(setenv("STAP_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 0);
  // Malformed, negative, and out-of-range values fall back to hardware.
  for (const char* bad : {"abc", "-2", "12x", "", "99999"}) {
    ASSERT_EQ(setenv("STAP_THREADS", bad, 1), 0);
    EXPECT_GE(ThreadPool::DefaultThreads(), 1) << bad;
  }
  ASSERT_EQ(unsetenv("STAP_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, BudgetedSweepStopsOnSharedExhaustion) {
  // A parallel sweep sharing one small budget: every worker charges, the
  // first trip latches, and the sweep's SharedStatus reports exactly one
  // clean kResourceExhausted.
  ThreadPool pool(4);
  Budget budget;
  budget.set_max_states(50);
  SharedStatus shared;
  ThreadPool::ParallelFor(&pool, 200, [&](int) {
    if (!shared.ok()) return;
    shared.Update(budget.ChargeStates());
  });
  EXPECT_FALSE(shared.ok());
  EXPECT_EQ(shared.ToStatus().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace stap
