// Schema-evolution scenario: version 2 of a schema extends version 1;
// the maintainers want (a) the set of documents *newly admitted* by v2
// (difference, Theorem 3.10), (b) a check that v2 really is backward
// compatible (inclusion, Lemma 3.3), and (c) the minimal canonical form
// of the published schema ([20]).
#include <iostream>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper_boolean.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/text_format.h"
#include "stap/tree/xml.h"

int main() {
  using namespace stap;  // NOLINT: example brevity

  // v1: an order has a customer and one or more items.
  SchemaBuilder v1;
  v1.AddType("Order", "order", "Customer Item+");
  v1.AddType("Customer", "customer", "%");
  v1.AddType("Item", "item", "Sku Qty");
  v1.AddType("Sku", "sku", "%");
  v1.AddType("Qty", "qty", "%");
  v1.AddStart("Order");

  // v2: items may carry a discount, and the order may end with a note.
  SchemaBuilder v2;
  v2.AddType("Order", "order", "Customer Item+ Note?");
  v2.AddType("Customer", "customer", "%");
  v2.AddType("Item", "item", "Sku Qty Discount?");
  v2.AddType("Sku", "sku", "%");
  v2.AddType("Qty", "qty", "%");
  v2.AddType("Discount", "discount", "%");
  v2.AddType("Note", "note", "%");
  v2.AddStart("Order");

  Edtd schema_v1 = v1.Build();
  Edtd schema_v2 = v2.Build();

  // (b) Backward compatibility: every v1 document validates under v2.
  std::cout << "v1 ⊆ v2 (backward compatible): "
            << (*IncludedInSingleType(schema_v1, schema_v2) ? "yes" : "no")
            << "\n";
  std::cout << "v2 ⊆ v1 (no new documents): "
            << (*IncludedInSingleType(schema_v2, schema_v1) ? "yes" : "no")
            << "\n\n";

  // (a) What is new in v2? The difference v2 \ v1 is generally not an
  // XSD; publish its minimal upper approximation (Theorem 3.10).
  DfaXsd whats_new = MinimizeXsd(*UpperDifference(schema_v2, schema_v1));
  std::cout << "Upper approximation of (v2 \\ v1), "
            << whats_new.type_size() << " types:\n"
            << SchemaToText(StEdtdFromDfaXsd(whats_new)) << "\n";

  Alphabet alphabet = whats_new.sigma;
  const char* documents[] = {
      // Unchanged v1 document: NOT in the difference.
      "<order><customer/><item><sku/><qty/></item></order>",
      // Uses a discount: new in v2.
      "<order><customer/><item><sku/><qty/><discount/></item></order>",
      // Uses a note: new in v2.
      "<order><customer/><item><sku/><qty/></item><note/></order>",
  };
  for (const char* source : documents) {
    Tree doc = *ParseXml(source, &alphabet);
    std::cout << (whats_new.Accepts(doc) ? "NEW      " : "existing ")
              << source << "\n";
  }

  // (c) Canonical minimal form of the published v2 schema.
  DfaXsd minimal =
      MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(schema_v2)));
  std::cout << "\nCanonical v2 schema (" << minimal.type_size()
            << " types):\n"
            << SchemaToText(StEdtdFromDfaXsd(minimal));
  return 0;
}
