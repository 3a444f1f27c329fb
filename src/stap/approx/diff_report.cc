#include "stap/approx/diff_report.h"

#include <sstream>
#include <utility>
#include <vector>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper_boolean.h"
#include "stap/base/check.h"
#include "stap/count/counter.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/xml.h"

namespace stap {

const char* SchemaRelationName(SchemaRelation relation) {
  switch (relation) {
    case SchemaRelation::kEquivalent:
      return "EQUIVALENT";
    case SchemaRelation::kSubset:
      return "SUBSET";
    case SchemaRelation::kSuperset:
      return "SUPERSET";
    case SchemaRelation::kIncomparable:
      return "INCOMPARABLE";
  }
  return "UNKNOWN";
}

StatusOr<SchemaDiffReport> CompareSchemas(const Edtd& a_in, const Edtd& b_in,
                                          Budget* budget, int count_depth,
                                          int count_width) {
  auto [a_aligned, b_aligned] = AlignAlphabets(a_in, b_in);
  Edtd a = ReduceEdtd(a_aligned);
  Edtd b = ReduceEdtd(b_aligned);
  STAP_CHECK(IsSingleType(a));
  STAP_CHECK(IsSingleType(b));

  SchemaDiffReport report;
  report.sigma = a.sigma;

  DfaXsd xsd_a = DfaXsdFromStEdtd(a);
  DfaXsd xsd_b = DfaXsdFromStEdtd(b);
  StatusOr<std::optional<Tree>> only_in_a =
      XsdInclusionWitness(a, xsd_b, nullptr, budget);
  if (!only_in_a.ok()) return only_in_a.status();
  StatusOr<std::optional<Tree>> only_in_b =
      XsdInclusionWitness(b, xsd_a, nullptr, budget);
  if (!only_in_b.ok()) return only_in_b.status();
  report.only_in_a = *std::move(only_in_a);
  report.only_in_b = *std::move(only_in_b);
  if (report.only_in_a.has_value() && report.only_in_b.has_value()) {
    report.relation = SchemaRelation::kIncomparable;
  } else if (report.only_in_a.has_value()) {
    report.relation = SchemaRelation::kSuperset;
  } else if (report.only_in_b.has_value()) {
    report.relation = SchemaRelation::kSubset;
  } else {
    report.relation = SchemaRelation::kEquivalent;
  }

  CountBounds bounds;
  bounds.max_depth = count_depth;
  bounds.max_width = count_width;
  auto count = [&](const DfaXsd& xsd, double* out) -> Status {
    StatusOr<std::vector<CountValue>> counts =
        CountXsdByDepth(xsd, bounds, budget);
    if (!counts.ok()) return counts.status();
    *out = counts->back().ToDouble();
    return Status();
  };
  STAP_RETURN_IF_ERROR(count(xsd_a, &report.count_a));
  STAP_RETURN_IF_ERROR(count(xsd_b, &report.count_b));
  StatusOr<DfaXsd> xsd_ab = UpperIntersection(a, b, nullptr, budget);
  if (!xsd_ab.ok()) return xsd_ab.status();
  STAP_RETURN_IF_ERROR(count(*xsd_ab, &report.count_intersection));
  return report;
}

std::string SchemaDiffReport::ToString() const {
  std::ostringstream os;
  os << "relation: " << SchemaRelationName(relation) << "\n"
     << "documents (bounded): A=" << count_a << " B=" << count_b
     << " A∩B=" << count_intersection << "\n";
  if (only_in_a.has_value()) {
    os << "only in A:\n" << ToXml(*only_in_a, sigma);
  }
  if (only_in_b.has_value()) {
    os << "only in B:\n" << ToXml(*only_in_b, sigma);
  }
  return os.str();
}

}  // namespace stap
