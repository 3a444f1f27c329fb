// Data-integration scenario (the paper's introduction): two library
// branches publish XSDs; the integrated feed must carry documents from
// both, so we need a single XSD containing the union — the minimal upper
// approximation (Theorem 3.6). The example shows which "error" documents
// (outside the true union) the approximation is forced to admit, and
// exhibits the ancestor-guarded exchange derivation that forces them.
#include <iostream>

#include "stap/approx/closure.h"
#include "stap/approx/upper_boolean.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/single_type.h"
#include "stap/schema/validate.h"
#include "stap/tree/enumerate.h"
#include "stap/tree/xml.h"

int main() {
  using namespace stap;  // NOLINT: example brevity

  // Branch A: every book record carries an ISBN and a paper format.
  SchemaBuilder branch_a;
  branch_a.AddType("Cat", "catalog", "Book*");
  branch_a.AddType("Book", "book", "Isbn Format");
  branch_a.AddType("Isbn", "isbn", "%");
  branch_a.AddType("Format", "format", "Paper");
  branch_a.AddType("Paper", "paper", "%");
  branch_a.AddStart("Cat");

  // Branch B: digital-only catalog; books have a DOI and an ebook format.
  SchemaBuilder branch_b;
  branch_b.AddType("Cat", "catalog", "Book*");
  branch_b.AddType("Book", "book", "Doi Format");
  branch_b.AddType("Doi", "doi", "%");
  branch_b.AddType("Format", "format", "Ebook");
  branch_b.AddType("Ebook", "ebook", "%");
  branch_b.AddStart("Cat");

  Edtd d1 = branch_a.Build();
  Edtd d2 = branch_b.Build();
  DfaXsd merged = MinimizeXsd(*UpperUnion(d1, d2));
  std::cout << "Integrated XSD has " << merged.type_size() << " types.\n\n";

  // Diagnose a malformed feed entry.
  Alphabet alphabet = merged.sigma;
  StatusOr<Tree> bad = ParseXml(
      "<catalog><book><isbn/></book></catalog>", &alphabet);
  ValidationResult diagnosis = ValidateWithDiagnostics(merged, *bad);
  std::cout << "Malformed entry: " << diagnosis.message << "\n\n";

  // The price of EDC: the merged schema accepts "chimeras" mixing an ISBN
  // with an ebook format. Show that such documents are *forced*: they
  // arise from members of the two branches by ancestor-guarded subtree
  // exchange (Figure 1), so every XSD containing both branches accepts
  // them.
  auto [a1, a2] = AlignAlphabets(d1, d2);
  int catalog = merged.sigma.Find("catalog"), book = merged.sigma.Find("book"),
      isbn = merged.sigma.Find("isbn"), fmt = merged.sigma.Find("format"),
      ebook = merged.sigma.Find("ebook");
  Tree chimera(catalog,
               {Tree(book, {Tree(isbn), Tree(fmt, {Tree(ebook)})})});
  std::cout << "Chimera document:\n" << ToXml(chimera, merged.sigma);
  std::cout << "in branch A: " << (a1.Accepts(chimera) ? "yes" : "no")
            << ", in branch B: " << (a2.Accepts(chimera) ? "yes" : "no")
            << ", in merged XSD: " << (merged.Accepts(chimera) ? "yes" : "no")
            << "\n\n";

  // Derivation witness: close the two pure documents under exchange and
  // show the chimera with its derivation tree height.
  Tree pure_a = *ParseXml(
      "<catalog><book><isbn/><format><paper/></format></book></catalog>",
      &alphabet);
  Tree pure_b = *ParseXml(
      "<catalog><book><doi/><format><ebook/></format></book></catalog>",
      &alphabet);
  ClosureResult closure = CloseUnderExchange({pure_a, pure_b});
  for (size_t i = 0; i < closure.trees.size(); ++i) {
    if (closure.trees[i] == chimera) {
      DerivationTree derivation = BuildDerivation(closure, static_cast<int>(i));
      std::cout << "Chimera derived from " << derivation.NumLeaves()
                << " branch documents in a derivation tree of height "
                << derivation.Height() << ".\n";
    }
  }

  // Quantify the error rate: enumerate catalogs of up to two books where
  // each book combines an identifier (isbn/doi) with a format
  // (paper/ebook) and count how many the merged schema admits beyond the
  // true union.
  int doi = merged.sigma.Find("doi"), paper = merged.sigma.Find("paper");
  std::vector<Tree> books;
  for (int id : {isbn, doi}) {
    for (int inner : {paper, ebook}) {
      books.push_back(Tree(book, {Tree(id), Tree(fmt, {Tree(inner)})}));
    }
  }
  int in_union = 0, in_merged = 0, total = 0;
  std::vector<Tree> catalogs = {Tree(catalog)};
  for (const Tree& b1_doc : books) {
    catalogs.push_back(Tree(catalog, {b1_doc}));
    for (const Tree& b2_doc : books) {
      catalogs.push_back(Tree(catalog, {b1_doc, b2_doc}));
    }
  }
  for (const Tree& doc : catalogs) {
    ++total;
    if (a1.Accepts(doc) || a2.Accepts(doc)) ++in_union;
    if (merged.Accepts(doc)) ++in_merged;
  }
  std::cout << "Catalogs considered: " << total << ", in true union: "
            << in_union << ", in merged XSD: " << in_merged
            << " (approximation overhead " << (in_merged - in_union)
            << ").\n";
  return 0;
}
