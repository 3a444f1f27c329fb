// Relax-NG-to-XSD scenario (the paper's introduction): a Web service
// describes its interface with a full regular tree language (an EDTD with
// unrestricted typing, as Relax NG allows). Publishing it as an XSD
// requires an approximation:
//   * a minimal UPPER approximation (Construction 3.1) when the consumer
//     must accept every service document, or
//   * a maximal LOWER approximation when the published schema must not
//     promise anything the service cannot handle (here via the union
//     machinery of Theorem 4.8 on the schema's disjuncts).
#include <iostream>

#include "stap/approx/lower_check.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/xml.h"

int main() {
  using namespace stap;  // NOLINT: example brevity

  // The service's Relax-NG-style grammar: a response is either a result
  // page (payload with records, status flagged ok) or an error page
  // (payload with a code, status flagged failed) — the *same* element
  // names <payload> and <status>, correlated only through the typing.
  // That correlation is exactly what EDC cannot express: an XSD must
  // give <payload> one type per context, so it cannot tie the payload's
  // content to the sibling status.
  SchemaBuilder service;
  service.AddType("Ok", "response", "PayloadOk StatusOk");
  service.AddType("Err", "response", "PayloadErr StatusErr");
  service.AddType("PayloadOk", "payload", "Record Record*");
  service.AddType("PayloadErr", "payload", "Code");
  service.AddType("StatusOk", "status", "Done");
  service.AddType("StatusErr", "status", "Failed");
  service.AddType("Record", "record", "%");
  service.AddType("Code", "code", "%");
  service.AddType("Done", "done", "%");
  service.AddType("Failed", "failed", "%");
  service.AddStart("Ok");
  service.AddStart("Err");
  Edtd grammar = service.Build();

  std::cout << "Single-type definable: "
            << (*IsSingleTypeDefinable(grammar) ? "yes" : "no") << "\n\n";

  // Upper approximation: the XSD a lenient consumer should use.
  DfaXsd upper = MinimizeXsd(MinimalUpperApproximation(grammar));
  std::cout << "Minimal upper XSD-approximation ("
            << upper.type_size() << " types):\n"
            << SchemaToText(StEdtdFromDfaXsd(upper)) << "\n";

  // What did we give up? The approximation merges the two payload (and
  // status) types, so the correlation between payload content and status
  // flag is lost: "successful responses carrying an error code" slip in.
  Alphabet alphabet = upper.sigma;
  const char* probes[] = {
      "<response><payload><record/></payload><status><done/></status>"
      "</response>",
      "<response><payload><code/></payload><status><failed/></status>"
      "</response>",
      // The forced chimera: error payload with a success status.
      "<response><payload><code/></payload><status><done/></status>"
      "</response>",
      // Still rejected: shapes outside both pages.
      "<response><payload><record/><code/></payload>"
      "<status><done/></status></response>",
      "<response><payload/></response>",
  };
  for (const char* source : probes) {
    Tree doc = *ParseXml(source, &alphabet);
    std::cout << (grammar.Accepts(doc) ? "service " : "        ")
              << (upper.Accepts(doc) ? "xsd " : "    ") << source << "\n";
  }

  // Lower approximation containing the "Ok" disjunct: treat the grammar
  // as Ok ∪ Err and apply Theorem 4.8.
  SchemaBuilder ok_only;
  ok_only.AddType("Ok", "response", "PayloadOk StatusOk");
  ok_only.AddType("PayloadOk", "payload", "Record Record*");
  ok_only.AddType("StatusOk", "status", "Done");
  ok_only.AddType("Record", "record", "%");
  ok_only.AddType("Done", "done", "%");
  ok_only.AddStart("Ok");
  SchemaBuilder err_only;
  err_only.AddType("Err", "response", "PayloadErr StatusErr");
  err_only.AddType("PayloadErr", "payload", "Code");
  err_only.AddType("StatusErr", "status", "Failed");
  err_only.AddType("Code", "code", "%");
  err_only.AddType("Failed", "failed", "%");
  err_only.AddStart("Err");

  DfaXsd lower = LowerUnionFixingFirst(ok_only.Build(), err_only.Build());
  std::cout << "\nMaximal lower XSD-approximation containing the Ok "
               "disjunct ("
            << lower.type_size() << " types):\n"
            << SchemaToText(StEdtdFromDfaXsd(lower)) << "\n";
  Alphabet lower_alphabet = lower.sigma;
  for (const char* source : probes) {
    Tree doc = *ParseXml(source, &lower_alphabet);
    std::cout << (lower.Accepts(doc) ? "lower-xsd " : "          ")
              << source << "\n";
  }
  return 0;
}
