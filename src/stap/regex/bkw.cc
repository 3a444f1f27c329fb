#include "stap/regex/bkw.h"

#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/base/check.h"

namespace stap {

namespace {

// Orbit ids (strongly connected components w.r.t. mutual reachability;
// a state without a cycle through itself forms a trivial orbit).
std::vector<int> ComputeOrbits(const Dfa& dfa, int* num_orbits) {
  const int n = dfa.num_states();
  // Reachability closure (n is small here; cubic is fine).
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (int q = 0; q < n; ++q) {
    std::vector<int> stack = {q};
    reach[q][q] = true;
    while (!stack.empty()) {
      int s = stack.back();
      stack.pop_back();
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        int r = dfa.Next(s, a);
        if (r != kNoState && !reach[q][r]) {
          reach[q][r] = true;
          stack.push_back(r);
        }
      }
    }
  }
  std::vector<int> orbit(n, -1);
  int next = 0;
  for (int q = 0; q < n; ++q) {
    if (orbit[q] >= 0) continue;
    orbit[q] = next;
    for (int r = q + 1; r < n; ++r) {
      if (reach[q][r] && reach[r][q]) orbit[r] = next;
    }
    ++next;
  }
  *num_orbits = next;
  return orbit;
}

bool IsGate(const Dfa& dfa, const std::vector<int>& orbit, int q) {
  if (dfa.IsFinal(q)) return true;
  for (int a = 0; a < dfa.num_symbols(); ++a) {
    int r = dfa.Next(q, a);
    if (r != kNoState && orbit[r] != orbit[q]) return true;
  }
  return false;
}

// Orbit property: all gates of each orbit agree on finality and on their
// orbit-external transitions.
bool HasOrbitProperty(const Dfa& dfa, const std::vector<int>& orbit,
                      int num_orbits) {
  for (int k = 0; k < num_orbits; ++k) {
    int reference = -1;
    for (int q = 0; q < dfa.num_states(); ++q) {
      if (orbit[q] != k || !IsGate(dfa, orbit, q)) continue;
      if (reference < 0) {
        reference = q;
        continue;
      }
      if (dfa.IsFinal(q) != dfa.IsFinal(reference)) return false;
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        int rq = dfa.Next(q, a);
        int rr = dfa.Next(reference, a);
        bool q_out = rq != kNoState && orbit[rq] != k;
        bool r_out = rr != kNoState && orbit[rr] != k;
        if (q_out != r_out) return false;
        if (q_out && rq != rr) return false;
      }
    }
  }
  return true;
}

StatusOr<bool> Decide(const Dfa& input, int depth, Budget* budget);

// The orbit automaton M_K(q): the orbit's internal transitions, initial
// state q, gates final.
StatusOr<bool> OrbitLanguagesAreOneUnambiguous(const Dfa& dfa,
                                               const std::vector<int>& orbit,
                                               int num_orbits, int depth,
                                               Budget* budget) {
  const int n = dfa.num_states();
  for (int k = 0; k < num_orbits; ++k) {
    // Entry states of the orbit: the automaton's initial state, or
    // targets of transitions from outside.
    std::vector<bool> entry(n, false);
    if (orbit[dfa.initial()] == k) entry[dfa.initial()] = true;
    for (int q = 0; q < n; ++q) {
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        int r = dfa.Next(q, a);
        if (r != kNoState && orbit[q] != k && orbit[r] == k) entry[r] = true;
      }
    }
    // Size of the orbit; single-state orbits without internal transitions
    // are trivially fine.
    int orbit_size = 0;
    for (int q = 0; q < n; ++q) orbit_size += orbit[q] == k ? 1 : 0;
    bool has_internal = false;
    for (int q = 0; q < n && !has_internal; ++q) {
      if (orbit[q] != k) continue;
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        int r = dfa.Next(q, a);
        if (r != kNoState && orbit[r] == k) has_internal = true;
      }
    }
    if (orbit_size == 1 && !has_internal) continue;

    for (int q0 = 0; q0 < n; ++q0) {
      if (orbit[q0] != k || !entry[q0]) continue;
      Dfa sub(n, dfa.num_symbols());
      sub.SetInitial(q0);
      for (int q = 0; q < n; ++q) {
        if (orbit[q] != k) continue;
        if (IsGate(dfa, orbit, q)) sub.SetFinal(q);
        for (int a = 0; a < dfa.num_symbols(); ++a) {
          int r = dfa.Next(q, a);
          if (r != kNoState && orbit[r] == k) sub.SetTransition(q, a, r);
        }
      }
      StatusOr<bool> sub_ok = Decide(sub, depth + 1, budget);
      if (!sub_ok.ok()) return sub_ok.status();
      if (!*sub_ok) return false;
    }
  }
  return true;
}

StatusOr<bool> Decide(const Dfa& input, int depth, Budget* budget) {
  // Each level either removes a transition (S-cut) or splits into
  // strictly smaller orbit automata, so depth is bounded by the input
  // size; the guard is a defensive backstop only.
  if (depth > 1000) return false;
  StatusOr<Dfa> minimized = Minimize(input, budget);
  if (!minimized.ok()) return minimized.status();
  Dfa dfa = *std::move(minimized);
  const int n = dfa.num_states();
  if (dfa.IsEmpty()) return true;
  if (n == 1 && dfa.Size() == 1) return true;  // language {ε}

  // M-consistent symbols: δ(f, a) is one common state for all finals.
  std::vector<bool> consistent(dfa.num_symbols(), false);
  for (int a = 0; a < dfa.num_symbols(); ++a) {
    int common = -2;  // -2 = unset
    bool ok = true;
    for (int q = 0; q < n && ok; ++q) {
      if (!dfa.IsFinal(q)) continue;
      int r = dfa.Next(q, a);
      if (r == kNoState) {
        ok = false;
      } else if (common == -2) {
        common = r;
      } else if (common != r) {
        ok = false;
      }
    }
    consistent[a] = ok && common != -2;
  }

  // S-cut: drop δ(f, a) for final f and consistent a.
  Dfa cut = dfa;
  bool removed = false;
  for (int q = 0; q < n; ++q) {
    if (!dfa.IsFinal(q)) continue;
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (consistent[a] && dfa.Next(q, a) != kNoState) {
        cut.SetTransition(q, a, kNoState);
        removed = true;
      }
    }
  }

  int num_orbits = 0;
  std::vector<int> orbit = ComputeOrbits(cut, &num_orbits);
  if (!HasOrbitProperty(cut, orbit, num_orbits)) return false;

  // Progress guard: if nothing was cut and the whole automaton is one
  // non-trivial orbit, the recursion would not shrink — BKW shows such a
  // language is one-unambiguous only in the trivial cases handled above.
  if (!removed && num_orbits == 1 && n > 0) {
    bool has_transition = false;
    for (int q = 0; q < n && !has_transition; ++q) {
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        if (cut.Next(q, a) != kNoState) has_transition = true;
      }
    }
    if (has_transition) return false;
  }

  return OrbitLanguagesAreOneUnambiguous(cut, orbit, num_orbits, depth,
                                         budget);
}

}  // namespace

StatusOr<bool> IsOneUnambiguousLanguage(const Dfa& dfa, Budget* budget) {
  return Decide(dfa, 0, budget);
}

}  // namespace stap
