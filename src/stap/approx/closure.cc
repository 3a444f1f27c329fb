#include "stap/approx/closure.h"

#include <map>
#include <unordered_map>
#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// A node occurrence inside a closure member, keyed by its exchange guard
// (ancestor string, or guard-DFA state plus label).
struct Occurrence {
  int tree;
  TreePath path;
};

// Guard key for a node: the full ancestor string in the string-guarded
// variant; (guard state, label) in the type-guarded variant.
using GuardKey = std::vector<int>;

class ClosureEngine {
 public:
  ClosureEngine(const Dfa* guard, const ClosureOptions& options)
      : guard_(guard), options_(options) {}

  ClosureResult Run(const std::vector<Tree>& seeds) {
    // The span wraps RunImpl so every early-return path (stop match, cap,
    // budget) still reports final member/exchange tallies.
    ScopedSpan span("closure.run");
    ClosureResult result = RunImpl(seeds);
    span.AddArg("seeds", result.seed_count);
    span.AddArg("members", result.trees.size());
    span.AddArg("exchanges", exchanges_tried_);
    span.AddArg("saturated", static_cast<int64_t>(result.saturated));
    return result;
  }

 private:
  ClosureResult RunImpl(const std::vector<Tree>& seeds) {
    static Counter* const calls = GetCounter("closure.calls");
    static Counter* const members = GetCounter("closure.members_added");
    static Counter* const exchanges = GetCounter("closure.exchanges_tried");
    calls->Increment();
    members_ = members;
    exchanges_ = exchanges;

    for (const Tree& seed : seeds) AddTree(seed, std::nullopt);
    result_.seed_count = static_cast<int>(result_.trees.size());
    if (result_.stop_match.has_value() || !result_.status.ok()) {
      result_.saturated = false;
      return std::move(result_);
    }

    // Process trees in insertion order; for each new tree, try exchanging
    // against all earlier trees (both directions).
    for (size_t current = 0;
         current < result_.trees.size() &&
         static_cast<int>(result_.trees.size()) < options_.max_trees;
         ++current) {
      // One span per fixpoint iteration: how many members the closure held
      // going in and how many this member's exchanges added.
      ScopedSpan iter_span("closure.iteration");
      iter_span.AddArg("member", static_cast<int64_t>(current));
      const size_t members_before = result_.trees.size();
      iter_span.AddArg("members_before", members_before);
      if (result_.status.ok()) {
        result_.status = Budget::CheckDeadline(options_.budget);
      }
      if (!result_.status.ok()) {
        result_.saturated = false;
        return std::move(result_);
      }
      const std::vector<std::pair<GuardKey, TreePath>> nodes =
          GuardedNodes(result_.trees[current]);
      for (const auto& [key, path] : nodes) {
        auto it = occurrences_.find(key);
        if (it == occurrences_.end()) continue;
        // Copy: AddTree mutates occurrences_.
        std::vector<Occurrence> partners = it->second;
        for (const Occurrence& partner : partners) {
          TryExchange(static_cast<int>(current), path, partner.tree,
                      partner.path);
          TryExchange(partner.tree, partner.path, static_cast<int>(current),
                      path);
          if (result_.stop_match.has_value() ||
              static_cast<int>(result_.trees.size()) >= options_.max_trees ||
              !result_.status.ok()) {
            result_.saturated = false;
            return std::move(result_);
          }
        }
      }
      iter_span.AddArg("added", result_.trees.size() - members_before);
    }
    if (static_cast<int>(result_.trees.size()) >= options_.max_trees) {
      result_.saturated = false;
    }
    return std::move(result_);
  }

 private:
  GuardKey KeyFor(const Tree& tree, const TreePath& path) const {
    Word ancestors = tree.AncestorString(path);
    if (guard_ == nullptr) return ancestors;
    // Type-guarded: (guard state after the ancestor string, node label).
    int state = guard_->num_states() > 0
                    ? guard_->Run(guard_->initial(), ancestors)
                    : kNoState;
    return {state, ancestors.back()};
  }

  std::vector<std::pair<GuardKey, TreePath>> GuardedNodes(
      const Tree& tree) const {
    std::vector<std::pair<GuardKey, TreePath>> result;
    for (const TreePath& path : tree.AllPaths()) {
      result.emplace_back(KeyFor(tree, path), path);
    }
    return result;
  }

  // Registers `tree` if new; records provenance and indexes its nodes.
  // Returns true if the tree was new.
  bool AddTree(const Tree& tree, std::optional<ExchangeStep> provenance) {
    if (options_.max_nodes > 0 && tree.NumNodes() > options_.max_nodes) {
      return false;
    }
    auto [it, inserted] = known_.emplace(tree, result_.trees.size());
    if (!inserted) return false;
    int index = it->second;
    result_.trees.push_back(tree);
    result_.provenance.push_back(std::move(provenance));
    members_->Increment();
    if (result_.status.ok()) {
      result_.status = Budget::ChargeStates(options_.budget);
    }
    if (options_.stop_predicate && !result_.stop_match.has_value() &&
        options_.stop_predicate(tree)) {
      result_.stop_match = tree;
    }
    for (const auto& [key, path] : GuardedNodes(result_.trees[index])) {
      occurrences_[key].push_back(Occurrence{index, path});
    }
    return true;
  }

  void TryExchange(int base, const TreePath& base_path, int donor,
                   const TreePath& donor_path) {
    if (base == donor && base_path == donor_path) return;
    exchanges_->Increment();
    ++exchanges_tried_;
    const Tree& base_tree = result_.trees[base];
    const Tree& donor_tree = result_.trees[donor];
    Tree exchanged =
        base_tree.ReplaceSubtree(base_path, donor_tree.At(donor_path));
    AddTree(std::move(exchanged),
            ExchangeStep{base, base_path, donor, donor_path});
  }

  const Dfa* guard_;  // null for the ancestor-string-guarded variant
  ClosureOptions options_;
  ClosureResult result_;
  Counter* members_ = nullptr;    // cached registry pointers, set in Run
  Counter* exchanges_ = nullptr;
  int64_t exchanges_tried_ = 0;   // this engine's own exchanges, for the span
  std::map<Tree, int> known_;
  // Guard keys are int sequences (ancestor strings or (state, label)
  // pairs); hashed lookup keeps the per-node indexing O(|key|).
  std::unordered_map<GuardKey, std::vector<Occurrence>, IntVectorHash>
      occurrences_;
};

}  // namespace

bool ClosureResult::Contains(const Tree& tree) const {
  for (const Tree& member : trees) {
    if (member == tree) return true;
  }
  return false;
}

ClosureResult CloseUnderExchange(const std::vector<Tree>& seeds,
                                 const ClosureOptions& options) {
  return ClosureEngine(nullptr, options).Run(seeds);
}

ClosureResult CloseUnderTypeGuardedExchange(const std::vector<Tree>& seeds,
                                            const Dfa& guard,
                                            const ClosureOptions& options) {
  return ClosureEngine(&guard, options).Run(seeds);
}

int DerivationTree::Height() const {
  if (left == nullptr) return 1;
  return 1 + std::max(left->Height(), right->Height());
}

int DerivationTree::NumLeaves() const {
  if (left == nullptr) return 1;
  return left->NumLeaves() + right->NumLeaves();
}

DerivationTree BuildDerivation(const ClosureResult& result, int index) {
  STAP_CHECK(index >= 0 && index < static_cast<int>(result.trees.size()));
  DerivationTree node;
  node.value = result.trees[index];
  const std::optional<ExchangeStep>& step = result.provenance[index];
  if (step.has_value()) {
    node.left = std::make_unique<DerivationTree>(
        BuildDerivation(result, step->base));
    node.right = std::make_unique<DerivationTree>(
        BuildDerivation(result, step->donor));
  }
  return node;
}

std::optional<Tree> FindEscape(
    const ClosureResult& result,
    const std::function<bool(const Tree&)>& escapes) {
  for (const Tree& tree : result.trees) {
    if (escapes(tree)) return tree;
  }
  return std::nullopt;
}

}  // namespace stap
