// Quickstart: define two XSDs, compute the minimal upper approximation of
// their union, validate documents against it, and print the result.
//
//   $ ./quickstart
#include <cstdio>
#include <iostream>

#include "stap/approx/upper_boolean.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"
#include "stap/tree/xml.h"

int main() {
  using namespace stap;  // NOLINT: example brevity

  // Two organizations describe "article" documents slightly differently.
  SchemaBuilder journal;
  journal.AddType("Article", "article", "Title Author+ Body");
  journal.AddType("Title", "title", "%");
  journal.AddType("Author", "author", "%");
  journal.AddType("Body", "body", "Section+");
  journal.AddType("Section", "section", "%");
  journal.AddStart("Article");

  SchemaBuilder blog;
  blog.AddType("Article", "article", "Title Body Tag*");
  blog.AddType("Title", "title", "%");
  blog.AddType("Body", "body", "Section*");
  blog.AddType("Section", "section", "%");
  blog.AddType("Tag", "tag", "%");
  blog.AddStart("Article");

  // The union of two XSDs need not be an XSD; compute the unique minimal
  // single-type language containing it (Theorem 3.6).
  DfaXsd merged = MinimizeXsd(*UpperUnion(journal.Build(), blog.Build()));

  std::cout << "Merged schema (" << merged.type_size() << " types):\n"
            << SchemaToText(StEdtdFromDfaXsd(merged)) << "\n";

  const char* documents[] = {
      // A journal article.
      "<article><title/><author/><author/><body><section/></body>"
      "</article>",
      // A blog article.
      "<article><title/><body/><tag/><tag/></article>",
      // In NEITHER original schema: a journal-shaped article (authors!)
      // with an empty blog-style body. Ancestor-guarded subtree exchange
      // forces it into every XSD containing both — the price of EDC.
      "<article><title/><author/><body/></article>",
      // Garbage: rejected by everything.
      "<article><body/><title/></article>",
  };
  Alphabet doc_alphabet = merged.sigma;
  for (const char* source : documents) {
    StatusOr<Tree> document = ParseXml(source, &doc_alphabet);
    if (!document.ok()) {
      std::cout << "parse error: " << document.status() << "\n";
      continue;
    }
    bool valid = doc_alphabet.size() == merged.sigma.size() &&
                 merged.Accepts(*document);
    std::printf("%-70.70s -> %s\n", source, valid ? "VALID" : "INVALID");
  }
  return 0;
}
