// Cooperative resource budgets for the worst-case-exponential kernels.
//
// The paper's lower-bound families (Theorems 3.2, 3.6, 3.8) force the
// subset construction, the exchange closure, and Boolean combinations of
// upper approximations into exponential state growth by design. A serving
// system must bound that growth rather than crash or hang: a Budget
// carries a wall-clock deadline and max-states / max-sets quotas, the
// constructions charge units as they allocate, and the first quota or
// deadline trip surfaces as a kResourceExhausted Status — a clean error
// in bounded time instead of unbounded memory and latency.
//
// All checks are cooperative (no signals, no watchdog threads): a call
// site that never charges cannot be interrupted, so every loop that can
// grow state must charge what it creates. The deadline is only sampled
// every kDeadlineStride charges, keeping the common charge path to one
// relaxed atomic increment.
//
// Budgets are shared: the parallel sweeps of the approximation pipeline
// charge one Budget from many ThreadPool workers, so the counters are
// atomics and exhaustion latches. Every exponential operation has one
// signature, taking a defaulted `Budget* budget = nullptr`; a null
// Budget* means "unlimited", which the null-tolerant static helpers below
// implement.
#ifndef STAP_BASE_BUDGET_H_
#define STAP_BASE_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "stap/base/status.h"

namespace stap {

class Budget {
 public:
  static constexpr int64_t kUnlimited =
      std::numeric_limits<int64_t>::max();
  // How many charges elapse between wall-clock samples.
  static constexpr int64_t kDeadlineStride = 256;

  Budget() = default;
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  // Quotas. Setters are meant for setup, before the budget is shared.
  void set_max_states(int64_t n) { max_states_ = n; }
  void set_max_sets(int64_t n) { max_sets_ = n; }
  void set_deadline_ms(int64_t ms) {
    deadline_ = Clock::now() + std::chrono::milliseconds(ms);
    deadline_ms_ = ms;
    has_deadline_ = true;
  }

  int64_t states_charged() const {
    return states_.load(std::memory_order_relaxed);
  }
  int64_t sets_charged() const {
    return sets_.load(std::memory_order_relaxed);
  }

  // Charges `n` automaton/product/closure states against the quota.
  // Returns kResourceExhausted once the quota or the deadline trips; the
  // failure latches, so later charges keep failing fast.
  Status ChargeStates(int64_t n = 1) {
    return Charge(&states_, max_states_, n, "states");
  }

  // Charges `n` state sets / frontier nodes / visited pairs.
  Status ChargeSets(int64_t n = 1) {
    return Charge(&sets_, max_sets_, n, "sets");
  }

  // Forces a wall-clock check regardless of the charge stride. Use at
  // natural phase boundaries (per refinement round, per BFS layer).
  Status CheckDeadline() {
    if (exhausted_.load(std::memory_order_relaxed)) return ExhaustedError();
    if (!has_deadline_ || Clock::now() < deadline_) return Status();
    return Exhaust("deadline of " + std::to_string(deadline_ms_) +
                   "ms exceeded");
  }

  // Null-tolerant helpers so call sites can stay `Budget* budget`-typed
  // with nullptr meaning unlimited.
  static Status ChargeStates(Budget* budget, int64_t n = 1) {
    return budget == nullptr ? Status() : budget->ChargeStates(n);
  }
  static Status ChargeSets(Budget* budget, int64_t n = 1) {
    return budget == nullptr ? Status() : budget->ChargeSets(n);
  }
  static Status CheckDeadline(Budget* budget) {
    return budget == nullptr ? Status() : budget->CheckDeadline();
  }

 private:
  using Clock = std::chrono::steady_clock;

  Status Charge(std::atomic<int64_t>* counter, int64_t limit, int64_t n,
                const char* what) {
    if (exhausted_.load(std::memory_order_relaxed)) return ExhaustedError();
    const int64_t used =
        counter->fetch_add(n, std::memory_order_relaxed) + n;
    if (used > limit) {
      return Exhaust(std::string(what) + " created " + std::to_string(used) +
                     " > max " + std::to_string(limit));
    }
    if (has_deadline_ &&
        ticks_.fetch_add(1, std::memory_order_relaxed) % kDeadlineStride ==
            kDeadlineStride - 1) {
      return CheckDeadline();
    }
    return Status();
  }

  Status Exhaust(std::string reason) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (reason_.empty()) reason_ = std::move(reason);
    }
    exhausted_.store(true, std::memory_order_relaxed);
    return ExhaustedError();
  }

  Status ExhaustedError() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ResourceExhaustedError("budget exhausted: " + reason_);
  }

  int64_t max_states_ = kUnlimited;
  int64_t max_sets_ = kUnlimited;
  bool has_deadline_ = false;
  int64_t deadline_ms_ = 0;
  Clock::time_point deadline_{};

  std::atomic<int64_t> states_{0};
  std::atomic<int64_t> sets_{0};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<bool> exhausted_{false};
  mutable std::mutex mutex_;
  std::string reason_;  // guarded by mutex_; set once
};

// First-error accumulator for parallel sweeps: workers call Update with
// their per-index Status; the sweep returns ToStatus() afterwards. ok()
// doubles as the cooperative early-out flag the sweeps already poll.
class SharedStatus {
 public:
  void Update(const Status& status) {
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = status;
    ok_.store(false, std::memory_order_relaxed);
  }

  bool ok() const { return ok_.load(std::memory_order_relaxed); }

  Status ToStatus() const {
    if (ok()) return Status();
    std::lock_guard<std::mutex> lock(mutex_);
    return status_;
  }

 private:
  std::atomic<bool> ok_{true};
  mutable std::mutex mutex_;
  Status status_;
};

}  // namespace stap

#endif  // STAP_BASE_BUDGET_H_
