#include "stap/approx/diff_report.h"

#include <sstream>

#include "stap/approx/upper_boolean.h"
#include "stap/approx/witness.h"
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

SchemaDiffReport CompareSchemas(const Edtd& a_in, const Edtd& b_in,
                                int count_depth, int count_width) {
  auto [a_aligned, b_aligned] = AlignAlphabets(a_in, b_in);
  Edtd a = ReduceEdtd(a_aligned);
  Edtd b = ReduceEdtd(b_aligned);
  STAP_CHECK(IsSingleType(a));
  STAP_CHECK(IsSingleType(b));

  SchemaDiffReport report;
  report.sigma = a.sigma;

  DfaXsd xsd_a = DfaXsdFromStEdtd(a);
  DfaXsd xsd_b = DfaXsdFromStEdtd(b);
  report.only_in_a = XsdInclusionWitness(a, xsd_b);
  report.only_in_b = XsdInclusionWitness(b, xsd_a);
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
  auto count = [&bounds](const DfaXsd& xsd) {
    StatusOr<std::vector<CountValue>> counts =
        CountXsdByDepth(xsd, bounds, nullptr);
    STAP_CHECK(counts.ok());  // only invalid bounds fail without a budget
    return counts->back().ToDouble();
  };
  report.count_a = count(xsd_a);
  report.count_b = count(xsd_b);
  report.count_intersection = count(*UpperIntersection(a, b));
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
