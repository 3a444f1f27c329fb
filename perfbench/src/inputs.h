// Seeded input generation: the schema corpus and documents whose verdict
// is fixed by construction. A valid document is sampled top-down from the
// schema (every child word drawn from its parent type's content model),
// then grown to a target size by repeating a segment of children that
// loops in that content model, which keeps it valid. An invalid document
// is a valid one with a mutation no schema can accept: an undeclared
// element, or a root relabelled to a declared non-root element.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "stap/io/artifact.h"
#include "stap/schema/edtd.h"

namespace perfbench {

struct SchemaSource {
  std::string name;  // file name without extension
  std::string text;  // textual format, or W3C XSD (LooksLikeXml)
};

// Reads perfbench/corpus/<file>, relative to the repository root.
SchemaSource ReadSchema(const std::string& file);

// The nine example schemas (five .stap, four .xsd), in a fixed order.
std::vector<SchemaSource> ExampleSchemas();

// Compiles a schema for input generation and for the workloads that
// validate against it; aborts the run (exit 2) if it does not compile.
std::shared_ptr<const stap::CompiledSchema> CompileOrDie(
    const SchemaSource& source);

class DocumentFactory {
 public:
  // `edtd` must be reduced (CompiledSchema::edtd is) and outlive this.
  explicit DocumentFactory(const stap::Edtd& edtd) : edtd_(edtd) {}

  // A valid document of about `target_bytes` (more if the sample already
  // is larger; less if no sample within a few tries has a loop to pump).
  std::string Valid(std::mt19937* rng, size_t target_bytes,
                    int max_depth) const;

  // A document the schema rejects by construction.
  std::string Invalid(std::mt19937* rng, size_t target_bytes,
                      int max_depth) const;

 private:
  struct Node;
  struct PumpSite;
  Node SampleNode(int type, int depth, int max_depth, std::mt19937* rng) const;
  void FindPumpSites(const Node& node, int depth,
                     std::vector<PumpSite>* sites) const;
  void Write(const Node& node, const PumpSite* site, const std::string& pumped,
             const std::string* root_name, std::string* out) const;
  std::string Generate(std::mt19937* rng, size_t target_bytes, int max_depth,
                       const std::string* root_name) const;

  const stap::Edtd& edtd_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
