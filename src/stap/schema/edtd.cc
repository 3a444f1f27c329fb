#include "stap/schema/edtd.h"

#include <algorithm>
#include <sstream>

#include "stap/base/check.h"

namespace stap {

int64_t Edtd::Size() const {
  int64_t total = sigma.size() + num_types() +
                  static_cast<int64_t>(start_types.size());
  for (const Dfa& dfa : content) total += dfa.Size();
  return total;
}

namespace {

EdtdTypeTracker Replay(const Edtd& edtd, const Tree& tree) {
  EdtdTypeTracker tracker(&edtd);
  ForEachEvent(
      tree, [&tracker](int label) { return tracker.StartElement(label); },
      [&tracker] { return tracker.EndElement(); });
  return tracker;
}

}  // namespace

std::vector<int> Edtd::PossibleTypes(const Tree& subtree) const {
  EdtdTypeTracker tracker = Replay(*this, subtree);
  return tracker.ok() ? tracker.root_types() : std::vector<int>{};
}

bool Edtd::Accepts(const Tree& tree) const {
  return Replay(*this, tree).Accepts();
}

std::vector<int> Edtd::OccurringTypes(int tau) const {
  STAP_CHECK(tau >= 0 && tau < num_types());
  Dfa trimmed = content[tau].Trimmed();
  std::vector<bool> occurs(num_types(), false);
  for (int q = 0; q < trimmed.num_states(); ++q) {
    for (int t = 0; t < num_types(); ++t) {
      if (trimmed.Next(q, t) != kNoState) occurs[t] = true;
    }
  }
  std::vector<int> result;
  for (int t = 0; t < num_types(); ++t) {
    if (occurs[t]) result.push_back(t);
  }
  return result;
}

void Edtd::CheckWellFormed() const {
  STAP_CHECK(static_cast<int>(mu.size()) == types.size());
  STAP_CHECK(static_cast<int>(content.size()) == num_types());
  for (int tau = 0; tau < num_types(); ++tau) {
    STAP_CHECK(mu[tau] >= 0 && mu[tau] < num_symbols());
    STAP_CHECK(content[tau].num_symbols() == num_types());
  }
  for (int tau : start_types) {
    STAP_CHECK(tau >= 0 && tau < num_types());
  }
  STAP_CHECK(content_source.empty() ||
             static_cast<int>(content_source.size()) == num_types());
  for (const RegexPtr& source : content_source) {
    if (source != nullptr) STAP_CHECK(source->MaxSymbol() < num_types());
  }
}

std::string Edtd::ToString() const {
  std::ostringstream os;
  os << "EDTD start={";
  for (size_t i = 0; i < start_types.size(); ++i) {
    if (i > 0) os << ",";
    os << types.Name(start_types[i]);
  }
  os << "}\n";
  for (int tau = 0; tau < num_types(); ++tau) {
    os << "  " << types.Name(tau) << " [" << sigma.Name(mu[tau])
       << "] -> DFA(" << content[tau].num_states() << " states)\n";
  }
  return os.str();
}

EdtdTypeTracker::EdtdTypeTracker(const Edtd* edtd)
    : edtd_(edtd), label_begin_(edtd->num_symbols() + 1, 0) {
  for (int tau = 0; tau < edtd->num_types(); ++tau) {
    if (edtd->content[tau].num_states() > 0) ++label_begin_[edtd->mu[tau] + 1];
  }
  for (int l = 0; l < edtd->num_symbols(); ++l) {
    label_begin_[l + 1] += label_begin_[l];
  }
  by_label_.resize(label_begin_.back());
  std::vector<int> fill(label_begin_.begin(), label_begin_.end() - 1);
  for (int tau = 0; tau < edtd->num_types(); ++tau) {
    if (edtd->content[tau].num_states() > 0) {
      by_label_[fill[edtd->mu[tau]]++] = tau;
    }
  }
}

bool EdtdTypeTracker::Fail() {
  ok_ = false;
  types_.clear();
  return false;
}

bool EdtdTypeTracker::StartElement(int symbol) {
  if (!ok_) return false;
  frame_begin_.push_back(candidates_.size());
  // A label outside Σ has no candidate types.
  if (symbol >= 0 && symbol < edtd_->num_symbols()) {
    for (int i = label_begin_[symbol]; i < label_begin_[symbol + 1]; ++i) {
      const int tau = by_label_[i];
      candidates_.push_back(Candidate{tau, edtd_->content[tau].initial()});
    }
  }
  if (candidates_.size() == frame_begin_.back()) return Fail();
  return true;
}

bool EdtdTypeTracker::EndElement() {
  if (!ok_) return false;
  const size_t begin = frame_begin_.back();
  types_.clear();
  for (size_t i = begin; i < candidates_.size(); ++i) {
    const Candidate& c = candidates_[i];
    if (edtd_->content[c.type].IsFinal(c.state) &&
        (types_.empty() || types_.back() != c.type)) {
      types_.push_back(c.type);
    }
  }
  candidates_.resize(begin);
  frame_begin_.pop_back();
  if (types_.empty()) return Fail();
  if (frame_begin_.empty()) return true;
  // The closed element is the parent's next child: advance each of the
  // parent's candidate runs by every type the child may have.
  const size_t parent = frame_begin_.back();
  next_.clear();
  for (size_t i = parent; i < candidates_.size(); ++i) {
    const Candidate& c = candidates_[i];
    const Dfa& dfa = edtd_->content[c.type];
    for (int child_type : types_) {
      const int r = dfa.Next(c.state, child_type);
      if (r != kNoState) next_.push_back(Candidate{c.type, r});
    }
  }
  if (next_.size() > 1) {
    std::sort(next_.begin(), next_.end());
    next_.erase(std::unique(next_.begin(), next_.end()), next_.end());
  }
  candidates_.resize(parent);
  candidates_.insert(candidates_.end(), next_.begin(), next_.end());
  if (candidates_.size() == parent) return Fail();
  return true;
}

bool EdtdTypeTracker::Accepts() const {
  if (!ok_ || !frame_begin_.empty()) return false;
  for (int tau : types_) {
    if (StateSetContains(edtd_->start_types, tau)) return true;
  }
  return false;
}

}  // namespace stap
