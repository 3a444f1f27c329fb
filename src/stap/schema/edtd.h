// Extended DTDs (paper, Definition 2.2).
//
// An EDTD is a DTD over a type alphabet ∆ together with a labeling
// μ : ∆ -> Σ. EDTDs capture exactly the unranked regular tree languages;
// single-type EDTDs (Definition 2.4) are the XSD abstraction.
//
// Content models d(τ) are regular languages over ∆, stored as DFAs whose
// alphabet is the type alphabet. Most algorithms assume a *reduced* EDTD
// (Proviso 2.3): every type occurs in some accepted tree. Use
// ReduceEdtd() from schema/reduce.h to establish that invariant.
#ifndef STAP_SCHEMA_EDTD_H_
#define STAP_SCHEMA_EDTD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/regex/ast.h"
#include "stap/tree/tree.h"

namespace stap {

struct Edtd {
  Alphabet sigma;                // Σ
  Alphabet types;                // ∆ (names, for printing)
  std::vector<int> mu;           // μ : type id -> symbol id
  std::vector<int> start_types;  // sorted set S_d ⊆ ∆
  std::vector<Dfa> content;      // content[τ] over ∆

  // Optional content-model provenance: the regex (over ∆) each content
  // DFA was compiled from, preserving counted repetition r{n,m} that the
  // DFA expands away. Either empty (no provenance) or sized num_types(),
  // entry-wise nullable. Invariant: content_source[τ] != nullptr implies
  // L(content_source[τ]) == L(content[τ]). Transformations that cannot
  // maintain the invariant null the entry; consumers (export, printing)
  // must treat it as a hint, never as the ground truth.
  std::vector<RegexPtr> content_source;

  int num_types() const { return static_cast<int>(mu.size()); }
  int num_symbols() const { return sigma.size(); }

  // |Σ| + size of the underlying DTD over ∆ (paper's size measure).
  int64_t Size() const;

  // Membership test: does some typing of `tree` satisfy the schema?
  // Replays the tree into an EdtdTypeTracker (below), polynomial in
  // |tree| * |this|.
  bool Accepts(const Tree& tree) const;

  // The set of types assignable to the root of `subtree` when it occurs
  // as a subtree (ignores start_types). Sorted. Same replay.
  std::vector<int> PossibleTypes(const Tree& subtree) const;

  // The set of types occurring in some word of L(content[tau]); sorted.
  // This is the transition relation of the type automaton (Def. 2.5).
  std::vector<int> OccurringTypes(int tau) const;

  // Structural sanity checks (sizes agree, ids in range).
  void CheckWellFormed() const;

  std::string ToString() const;
};

// Event-driven bottom-up typing — libstap's one EDTD typing kernel, the
// standard unranked-tree-automaton evaluation on start/end element
// events. Each open element keeps its candidate types (μ(τ) = its label,
// content non-empty), each with the set of content-DFA states reached
// over the children closed so far. When an element closes, its types are
// the candidates in a final state, and they advance the parent's
// candidates. Memory is O(depth · candidates), never the document.
//
// An element left with no candidate has no type, and then neither has
// the document: the tracker latches !ok() and ignores later events.
// Events must be well nested (one root, each end matching a start).
class EdtdTypeTracker {
 public:
  // `edtd` must outlive the tracker.
  explicit EdtdTypeTracker(const Edtd* edtd);

  // Both return ok().
  bool StartElement(int symbol);
  bool EndElement();

  bool ok() const { return ok_; }

  // After the root closed with ok(): the root's possible types, sorted.
  const std::vector<int>& root_types() const { return types_; }

  // After the root closed: does some typing put a start type at the root?
  bool Accepts() const;

 private:
  struct Candidate {
    int type;
    int state;  // of content[type]
    friend bool operator<(const Candidate& a, const Candidate& b) {
      return a.type != b.type ? a.type < b.type : a.state < b.state;
    }
    friend bool operator==(const Candidate&, const Candidate&) = default;
  };

  bool Fail();

  const Edtd* edtd_;
  // Types by label, CSR: label l's are by_label_[label_begin_[l] ..
  // label_begin_[l + 1]).
  std::vector<int> label_begin_;
  std::vector<int> by_label_;
  // The open elements' candidates, one sorted run per element, innermost
  // last; frame_begin_ holds where each run starts.
  std::vector<Candidate> candidates_;
  std::vector<size_t> frame_begin_;
  std::vector<Candidate> next_;  // scratch
  std::vector<int> types_;       // types of the element that closed last
  bool ok_ = true;
};

}  // namespace stap

#endif  // STAP_SCHEMA_EDTD_H_
