#include "inputs.h"

#include <cstdlib>
#include <iostream>

#include "common.h"
#include "stap/gen/random.h"

namespace perfbench {

using stap::Edtd;

SchemaSource ReadSchema(const std::string& file) {
  return {file.substr(0, file.rfind('.')),
          ReadFileOrDie("perfbench/corpus/" + file)};
}

std::vector<SchemaSource> ExampleSchemas() {
  std::vector<SchemaSource> schemas;
  for (const char* file :
       {"library_v1.stap", "library_v2.stap", "docbook_lite.stap",
        "jats_lite.stap", "relaxng_style.stap", "article.xsd", "catalog.xsd",
        "purchase_order.xsd", "recipe.xsd"}) {
    schemas.push_back(ReadSchema(file));
  }
  return schemas;
}

std::shared_ptr<const stap::CompiledSchema> CompileOrDie(
    const SchemaSource& source) {
  stap::StatusOr<stap::CompiledSchema> compiled =
      stap::CompileSchema(source.text, /*cache=*/nullptr);
  if (!compiled.ok()) {
    std::cerr << "perfbench: schema " << source.name << " does not compile: "
              << compiled.status().ToString() << "\n";
    std::exit(2);
  }
  return std::make_shared<const stap::CompiledSchema>(std::move(*compiled));
}

struct DocumentFactory::Node {
  int type;
  std::vector<Node> children;
};

// children[begin, end) of `parent` runs its content DFA from a state back
// to the same state, so repeating that segment keeps the word accepted.
struct DocumentFactory::PumpSite {
  const Node* parent;
  size_t begin;
  size_t end;
  int depth;
};

DocumentFactory::Node DocumentFactory::SampleNode(int type, int depth,
                                                  int max_depth,
                                                  std::mt19937* rng) const {
  if (depth > 4 * max_depth + 64) {
    std::cerr << "perfbench: sampling does not terminate on this schema\n";
    std::exit(2);
  }
  // Past max_depth the word is a shortest completion (soft length 0).
  std::optional<stap::Word> word = stap::SampleWord(
      edtd_.content[type], rng, depth >= max_depth ? 0 : 4);
  Node node{type, {}};
  for (int child : *word) {
    node.children.push_back(SampleNode(child, depth + 1, max_depth, rng));
  }
  return node;
}

void DocumentFactory::FindPumpSites(const Node& node, int depth,
                                    std::vector<PumpSite>* sites) const {
  const stap::Dfa& dfa = edtd_.content[node.type];
  std::vector<int> states = {dfa.initial()};
  for (const Node& child : node.children) {
    states.push_back(dfa.Next(states.back(), child.type));
  }
  // The first segment that runs from a state back to it: either a
  // repeated state, or a child whose type loops on the state it leads to.
  bool found = false;
  for (size_t end = 1; end < states.size() && !found; ++end) {
    const int type = node.children[end - 1].type;
    if (dfa.Next(states[end], type) == states[end]) {
      sites->push_back({&node, end - 1, end, depth});
      found = true;
    }
    for (size_t begin = 0; begin < end && !found; ++begin) {
      if (states[begin] == states[end]) {
        sites->push_back({&node, begin, end, depth});
        found = true;
      }
    }
  }
  for (const Node& child : node.children) {
    FindPumpSites(child, depth + 1, sites);
  }
}

void DocumentFactory::Write(const Node& node, const PumpSite* site,
                            const std::string& pumped,
                            const std::string* root_name,
                            std::string* out) const {
  const std::string& name =
      root_name != nullptr ? *root_name : edtd_.sigma.Name(edtd_.mu[node.type]);
  const bool pump_here = site != nullptr && site->parent == &node;
  if (node.children.empty()) {
    out->append("<").append(name).append("/>");
    return;
  }
  out->append("<").append(name).append(">");
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (pump_here && i == site->end) out->append(pumped);
    Write(node.children[i], site, pumped, nullptr, out);
  }
  if (pump_here && site->end == node.children.size()) out->append(pumped);
  out->append("</").append(name).append(">");
}

std::string DocumentFactory::Generate(std::mt19937* rng, size_t target_bytes,
                                      int max_depth,
                                      const std::string* root_name) const {
  constexpr int kAttempts = 32;
  std::string best;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const int start = edtd_.start_types[std::uniform_int_distribution<size_t>(
        0, edtd_.start_types.size() - 1)(*rng)];
    const Node root = SampleNode(start, 1, max_depth, rng);
    std::string plain;
    Write(root, nullptr, "", root_name, &plain);
    if (plain.size() >= target_bytes) return plain;
    std::vector<PumpSite> sites;
    FindPumpSites(root, 1, &sites);
    if (sites.empty()) {
      if (plain.size() > best.size()) best = std::move(plain);
      continue;
    }
    const PumpSite* site = &sites[0];
    for (const PumpSite& candidate : sites) {
      if (candidate.depth < site->depth) site = &candidate;
    }
    std::string segment;
    for (size_t i = site->begin; i < site->end; ++i) {
      Write(site->parent->children[i], nullptr, "", nullptr, &segment);
    }
    const size_t copies =
        (target_bytes - plain.size() + segment.size() - 1) / segment.size();
    std::string pumped;
    pumped.reserve(copies * segment.size());
    for (size_t i = 0; i < copies; ++i) pumped.append(segment);
    std::string xml;
    xml.reserve(plain.size() + pumped.size());
    Write(root, site, pumped, root_name, &xml);
    return xml;
  }
  return best;
}

std::string DocumentFactory::Valid(std::mt19937* rng, size_t target_bytes,
                                   int max_depth) const {
  return Generate(rng, target_bytes, max_depth, nullptr);
}

std::string DocumentFactory::Invalid(std::mt19937* rng, size_t target_bytes,
                                     int max_depth) const {
  // Declared labels that no start type carries: a root with one of them
  // is rejected whatever lies below it.
  std::vector<int> non_root;
  for (int a = 0; a < edtd_.sigma.size(); ++a) {
    bool is_root = false;
    for (int start : edtd_.start_types) is_root |= edtd_.mu[start] == a;
    if (!is_root) non_root.push_back(a);
  }
  if (!non_root.empty() && std::bernoulli_distribution(0.5)(*rng)) {
    const std::string root_name = edtd_.sigma.Name(non_root[
        std::uniform_int_distribution<size_t>(0, non_root.size() - 1)(*rng)]);
    return Generate(rng, target_bytes, max_depth, &root_name);
  }
  // An element the schema does not declare, as the root's last child.
  std::string undeclared = "undeclared";
  while (edtd_.sigma.Find(undeclared) != stap::kNoSymbol) undeclared += "_x";
  std::string xml = Valid(rng, target_bytes, max_depth);
  const std::string element = "<" + undeclared + "/>";
  if (xml.size() >= 2 && xml.compare(xml.size() - 2, 2, "/>") == 0 &&
      xml.find('<', 1) == std::string::npos) {
    // A childless root "<r/>" becomes "<r><undeclared/></r>".
    const std::string name = xml.substr(1, xml.size() - 3);
    return "<" + name + ">" + element + "</" + name + ">";
  }
  xml.insert(xml.rfind("</"), element);
  return xml;
}

}  // namespace perfbench
