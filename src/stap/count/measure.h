// Precision analytics for single-type approximations (`stap measure`).
//
// Quantifies the paper's central trade-off on the depth/width-bounded
// slice: how many trees the minimal upper approximation gains,
// |L(upper) \ L(S)|, and how many a sound lower approximation loses,
// |L(S) \ L(lower)|, for every depth up to a bound. Both differences are
// computed from the counting DPs (count/counter.h) without materializing
// difference automata: S ⊆ upper (Lemma 3.3) gives |upper \ S| =
// |upper| − |S|, and lower ⊆ S (soundness of the intersection rule,
// approx/upper.h) gives |S \ lower| = |S| − |lower|. No intersection
// is counted; count_property_test checks both inclusions' count
// identities with the joint (XSD state × profile) DP.
#ifndef STAP_COUNT_MEASURE_H_
#define STAP_COUNT_MEASURE_H_

#include <string>
#include <vector>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/count/bignum.h"
#include "stap/count/counter.h"
#include "stap/schema/edtd.h"

namespace stap {

struct MeasureOptions {
  CountBounds bounds;
  bool upper = true;
  bool lower = true;
};

struct MeasureResult {
  CountBounds bounds;
  bool single_type = false;  // the reduced input is already single-type
  int schema_types = 0;      // types after reduction

  // |L(S)| per depth 1..max_depth.
  std::vector<CountValue> schema;

  bool has_upper = false;
  int upper_states = 0;  // type size of the minimal upper approximation
  std::vector<CountValue> upper;   // |L(upper)|
  std::vector<CountValue> gained;  // |L(upper) \ L(S)| = |L(upper)| − |L(S)|

  bool has_lower = false;
  int lower_states = 0;
  std::vector<CountValue> lower;  // |L(lower)|
  std::vector<CountValue> lost;   // |L(S) \ L(lower)| = |L(S)| − |L(lower)|

  // Precision of the upper approximation at depth index d:
  // |L(S)| / |L(upper)| in (0, 1]; 1.0 when |L(upper)| is 0.
  double UpperPrecision(int d) const;
  // Recall of the lower approximation: |L(lower)| / |L(S)| (lower ⊆ S).
  double LowerRecall(int d) const;

  // Human-readable per-depth table.
  std::string ToText() const;
  // Machine-readable JSON (counts as decimal strings, ratios as numbers).
  std::string ToJson() const;
};

// Counts the schema and its requested approximations. The input is
// reduced once, and one SubsetConstruction (approx/upper.h) on the
// reduced EDTD gives both approximations and `single_type`; when every
// merged state's members share one content image, lower is upper and its
// counts are copied, not recounted. An empty-language input yields
// all-zero counts. A null budget is unlimited.
StatusOr<MeasureResult> MeasureSchema(const Edtd& schema,
                                      const MeasureOptions& options,
                                      Budget* budget);

}  // namespace stap

#endif  // STAP_COUNT_MEASURE_H_
