// Dense bitset state sets and bitset-backed NFA transition rows.
//
// The sorted-vector StateSet of nfa.h is the right interchange format at
// API boundaries (sparse, ordered, cheap to diff), but the search kernels
// — subset construction, antichain inclusion, pair products — spend their
// time unioning successor sets and testing membership/subset relations.
// Over a fixed state universe those operations are word-parallel on a
// packed uint64_t representation:
//
//  * union            = block-wise OR
//  * subset test      = (a & ~b) == 0, one word at a time, early exit
//  * intersection test= (a & b) != 0, early exit
//  * hash             = splitmix64 fold over the blocks
//
// DenseNfa precomputes one DenseStateSet row per (state, symbol), so the
// successor set of a frontier is an OR of rows selected by the frontier's
// set bits — no sorting, no deduplication, no per-step allocation.
//
// DenseStateSetHash keys Interner (interner.h) on the dense
// representation.
#ifndef STAP_AUTOMATA_BITSET_H_
#define STAP_AUTOMATA_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/automata/nfa.h"

namespace stap {

// A subset of a fixed universe {0, …, num_states-1}, packed 64 states per
// block. The universe size is fixed at construction (or Reset); all
// binary operations require equal universes.
class DenseStateSet {
 public:
  DenseStateSet() = default;
  explicit DenseStateSet(int num_states) { Reset(num_states); }

  // Clears and re-sizes to a (possibly different) universe.
  void Reset(int num_states) {
    num_states_ = num_states;
    blocks_.assign((static_cast<size_t>(num_states) + 63) / 64, 0);
  }

  int num_states() const { return num_states_; }
  size_t num_blocks() const { return blocks_.size(); }
  const uint64_t* blocks() const { return blocks_.data(); }

  void Clear() { std::fill(blocks_.begin(), blocks_.end(), uint64_t{0}); }

  void Add(int state) {
    blocks_[static_cast<size_t>(state) >> 6] |= uint64_t{1} << (state & 63);
  }

  bool Contains(int state) const {
    return (blocks_[static_cast<size_t>(state) >> 6] >>
            (state & 63)) & 1;
  }

  bool Empty() const {
    for (uint64_t b : blocks_) {
      if (b != 0) return false;
    }
    return true;
  }

  int Count() const {
    int count = 0;
    for (uint64_t b : blocks_) count += std::popcount(b);
    return count;
  }

  // this ⊆ other, word-parallel with early exit.
  bool IsSubsetOf(const DenseStateSet& other) const {
    for (size_t i = 0; i < blocks_.size(); ++i) {
      if ((blocks_[i] & ~other.blocks_[i]) != 0) return false;
    }
    return true;
  }

  // this ∩ other ≠ ∅, word-parallel with early exit.
  bool Intersects(const DenseStateSet& other) const {
    for (size_t i = 0; i < blocks_.size(); ++i) {
      if ((blocks_[i] & other.blocks_[i]) != 0) return true;
    }
    return false;
  }

  void UnionWith(const DenseStateSet& other) {
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i] |= other.blocks_[i];
    }
  }

  uint64_t Hash() const {
    uint64_t h = 0x243f6a8885a308d3ull ^
                 (blocks_.size() * 0x9e3779b97f4a7c15ull);
    for (uint64_t b : blocks_) h = MixU64(h ^ b);
    return h;
  }

  // Invokes fn(state) for every member, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < blocks_.size(); ++i) {
      uint64_t b = blocks_[i];
      while (b != 0) {
        fn(static_cast<int>(i * 64 + std::countr_zero(b)));
        b &= b - 1;
      }
    }
  }

  StateSet ToStateSet() const {
    StateSet result;
    result.reserve(Count());
    ForEach([&](int q) { result.push_back(q); });
    return result;
  }

  static DenseStateSet FromStateSet(const StateSet& set, int num_states) {
    DenseStateSet result(num_states);
    for (int q : set) result.Add(q);
    return result;
  }

  friend bool operator==(const DenseStateSet& a, const DenseStateSet& b) {
    return a.blocks_ == b.blocks_;
  }

 private:
  int num_states_ = 0;
  std::vector<uint64_t> blocks_;
};

// Interner hasher for DenseStateSets over one fixed universe.
struct DenseStateSetHash {
  uint64_t operator()(const DenseStateSet& set) const { return set.Hash(); }
};

// An Nfa snapshot with bitset transition rows: Row(q, a) is the successor
// set of q on a, and NextInto ORs the rows selected by a frontier.
class DenseNfa {
 public:
  explicit DenseNfa(const Nfa& nfa);

  int num_states() const { return num_states_; }
  int num_symbols() const { return num_symbols_; }

  const DenseStateSet& initial() const { return initial_; }
  const DenseStateSet& finals() const { return finals_; }

  const DenseStateSet& Row(int state, int symbol) const {
    return rows_[static_cast<size_t>(state) * num_symbols_ + symbol];
  }

  // Successors of every state in `states` on `symbol`, into `*out`
  // (cleared first). `*out` must be sized to this universe.
  void NextInto(const DenseStateSet& states, int symbol,
                DenseStateSet* out) const {
    out->Clear();
    states.ForEach([&](int q) { out->UnionWith(Row(q, symbol)); });
  }

  bool AnyFinal(const DenseStateSet& states) const {
    return states.Intersects(finals_);
  }

 private:
  int num_states_;
  int num_symbols_;
  std::vector<DenseStateSet> rows_;  // state * num_symbols + symbol
  DenseStateSet initial_;
  DenseStateSet finals_;
};

}  // namespace stap

#endif  // STAP_AUTOMATA_BITSET_H_
