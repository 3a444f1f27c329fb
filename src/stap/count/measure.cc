#include "stap/count/measure.h"

#include <sstream>
#include <utility>

#include "stap/approx/upper.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"

namespace stap {

namespace {

// JSON string of a count plus its double magnitude, e.g.
// "schema": "42", "schema_approx": 42.0.
void AppendCountField(std::ostringstream* os, const char* name,
                      const CountValue& value) {
  *os << "\"" << name << "\":\"" << value.ToString() << "\",\"" << name
      << "_approx\":" << value.ToDouble();
}

}  // namespace

double MeasureResult::UpperPrecision(int d) const {
  return CountRatio(schema[d], upper[d]);
}

double MeasureResult::LowerRecall(int d) const {
  return CountRatio(lower[d], schema[d]);
}

std::string MeasureResult::ToText() const {
  std::ostringstream os;
  os << "bounds: depth <= " << bounds.max_depth << ", width <= "
     << bounds.max_width << "\n";
  os << "schema: " << schema_types << " types"
     << (single_type ? " (single-type)" : "") << "\n";
  if (has_upper) os << "upper approximation: " << upper_states << " states\n";
  if (has_lower) os << "lower approximation: " << lower_states << " states\n";
  for (int d = 0; d < bounds.max_depth; ++d) {
    os << "depth " << (d + 1) << ": |L(S)| = " << schema[d].ToString();
    if (has_upper) {
      os << "  |L(upper)| = " << upper[d].ToString()
         << "  gained = " << gained[d].ToString() << "  precision = "
         << UpperPrecision(d);
    }
    if (has_lower) {
      os << "  |L(lower)| = " << lower[d].ToString()
         << "  lost = " << lost[d].ToString() << "  recall = "
         << LowerRecall(d);
    }
    os << "\n";
  }
  return os.str();
}

std::string MeasureResult::ToJson() const {
  std::ostringstream os;
  os << "{\"max_depth\":" << bounds.max_depth << ",\"max_width\":"
     << bounds.max_width << ",\"single_type\":"
     << (single_type ? "true" : "false") << ",\"schema_types\":"
     << schema_types;
  if (has_upper) os << ",\"upper_states\":" << upper_states;
  if (has_lower) os << ",\"lower_states\":" << lower_states;
  os << ",\"per_depth\":[";
  for (int d = 0; d < bounds.max_depth; ++d) {
    if (d > 0) os << ",";
    os << "{\"depth\":" << (d + 1) << ",";
    AppendCountField(&os, "schema", schema[d]);
    if (has_upper) {
      os << ",";
      AppendCountField(&os, "upper", upper[d]);
      os << ",";
      AppendCountField(&os, "gained", gained[d]);
      os << ",\"upper_precision\":" << UpperPrecision(d);
    }
    if (has_lower) {
      os << ",";
      AppendCountField(&os, "lower", lower[d]);
      os << ",";
      AppendCountField(&os, "lost", lost[d]);
      os << ",\"lower_recall\":" << LowerRecall(d);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

StatusOr<MeasureResult> MeasureSchema(const Edtd& schema,
                                      const MeasureOptions& options,
                                      Budget* budget) {
  static Counter* const calls = GetCounter("count.measure_calls");
  static Histogram* const latency = GetHistogram("count.measure_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("count.measure");

  MeasureResult result;
  result.bounds = options.bounds;

  ScopedSpan reduce_span("measure.reduce");
  const Edtd reduced = ReduceEdtd(schema);
  result.schema_types = reduced.num_types();
  reduce_span.End();

  ScopedSpan schema_span("measure.count_schema");
  StatusOr<std::vector<CountValue>> schema_counts =
      CountEdtdByDepth(reduced, options.bounds, budget);
  if (!schema_counts.ok()) return schema_counts.status();
  result.schema = *std::move(schema_counts);
  schema_span.End();

  // One subset construction gives both approximations and single_type.
  ScopedSpan approx_span("measure.approximate");
  StatusOr<SubsetApproximations> approximations =
      SubsetConstruction(reduced, options.upper, options.lower, budget);
  if (!approximations.ok()) return approximations.status();
  result.single_type = approximations->single_type;
  approx_span.End();

  if (options.upper) {
    ScopedSpan upper_span("measure.upper");
    const DfaXsd& upper = *approximations->upper;
    result.has_upper = true;
    result.upper_states = upper.type_size();
    StatusOr<std::vector<CountValue>> upper_counts =
        CountXsdByDepth(upper, options.bounds, budget);
    if (!upper_counts.ok()) return upper_counts.status();
    result.upper = *std::move(upper_counts);
    // S ⊆ upper (Lemma 3.3), so |L(upper) ∩ L(S)| is |L(S)|.
    for (int d = 0; d < options.bounds.max_depth; ++d) {
      result.gained.push_back(
          CountValue::Sub(result.upper[d], result.schema[d]));
    }
  }

  if (options.lower) {
    ScopedSpan lower_span("measure.lower");
    const DfaXsd& lower = *approximations->lower;
    result.has_lower = true;
    result.lower_states = lower.type_size();
    if (options.upper && approximations->lower_is_upper) {
      // The same XSD: its counts are upper's.
      result.lower = result.upper;
    } else {
      StatusOr<std::vector<CountValue>> lower_counts =
          CountXsdByDepth(lower, options.bounds, budget);
      if (!lower_counts.ok()) return lower_counts.status();
      result.lower = *std::move(lower_counts);
    }
    // lower ⊆ S (the intersection rule is sound), so |L(lower) ∩ L(S)| is
    // |L(lower)|.
    for (int d = 0; d < options.bounds.max_depth; ++d) {
      result.lost.push_back(
          CountValue::Sub(result.schema[d], result.lower[d]));
    }
  }

  span.AddArg("depth", options.bounds.max_depth);
  return result;
}

}  // namespace stap
