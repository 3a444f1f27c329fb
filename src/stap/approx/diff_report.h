// Schema comparison reports.
//
// Bundles the paper's decision procedures into the artifact a schema
// maintainer actually wants when comparing two XSDs: the containment
// relation (Lemma 3.3, both directions), concrete witness documents for
// each strict direction (approx/witness.h), and bounded document counts
// quantifying how much the schemas differ (count/counter.h).
#ifndef STAP_APPROX_DIFF_REPORT_H_
#define STAP_APPROX_DIFF_REPORT_H_

#include <optional>
#include <string>

#include "stap/schema/edtd.h"
#include "stap/tree/tree.h"

namespace stap {

enum class SchemaRelation {
  kEquivalent,       // L(a) == L(b)
  kSubset,           // L(a) ⊂ L(b)
  kSuperset,         // L(a) ⊃ L(b)
  kIncomparable,     // neither contains the other
};

const char* SchemaRelationName(SchemaRelation relation);

struct SchemaDiffReport {
  SchemaRelation relation = SchemaRelation::kEquivalent;
  // A document in L(a) \ L(b), when that set is non-empty; and dually.
  std::optional<Tree> only_in_a;
  std::optional<Tree> only_in_b;
  // Document counts within the bounds used by CompareSchemas.
  double count_a = 0;
  double count_b = 0;
  double count_intersection = 0;
  // The merged alphabet the witness trees are labeled over.
  Alphabet sigma;

  // Human-readable multi-line summary (witnesses rendered as XML).
  std::string ToString() const;
};

// Compares two single-type schemas (checked). Counting uses documents of
// depth <= count_depth with at most count_width children per node.
SchemaDiffReport CompareSchemas(const Edtd& a, const Edtd& b,
                                int count_depth = 4, int count_width = 4);

}  // namespace stap

#endif  // STAP_APPROX_DIFF_REPORT_H_
