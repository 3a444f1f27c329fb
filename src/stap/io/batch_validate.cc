#include "stap/io/batch_validate.h"

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/schema/edtd.h"
#include "stap/schema/streaming.h"
#include "stap/schema/validate.h"
#include "stap/tree/xml.h"

namespace stap {

namespace {

DocumentVerdict ErrorVerdict(const Status& status) {
  DocumentVerdict verdict;
  verdict.kind = DocumentVerdict::Kind::kError;
  verdict.message = status.message();
  verdict.error_code = status.code();
  return verdict;
}

DocumentVerdict SchemaVerdict(bool valid, std::string message) {
  DocumentVerdict verdict;
  verdict.kind = valid ? DocumentVerdict::Kind::kValid
                       : DocumentVerdict::Kind::kInvalid;
  if (!valid) verdict.message = std::move(message);
  return verdict;
}

// The single-type path: the StreamingValidator, plus the label, child
// count and first kMaxFormattedSymbols child labels of every open
// element. Its first violation is worded when the element it names
// closes, so children after the violating one are counted too, and the
// message is the one ValidateWithDiagnostics gives.
class XsdCheck {
 public:
  explicit XsdCheck(const DfaXsd* xsd) : xsd_(xsd), validator_(xsd) {}

  void StartElement(int symbol) {
    if (!message_.empty()) return;
    if (!open_.empty() && open_.back().children++ < kMaxFormattedSymbols) {
      shown_.push_back(symbol);
    }
    open_.push_back(Open{symbol, shown_.size(), 0});
    if (validator_.ok() && !validator_.StartElement(symbol)) Latch();
  }

  void EndElement() {
    if (!message_.empty()) return;
    if (validator_.ok() && !validator_.EndElement()) Latch();
    const Open& element = open_.back();
    if (open_.size() == violated_depth_) {
      message_ = ViolationMessage(
          *xsd_, validator_.violation().kind, violated_depth_ == 1,
          element.label, std::span<const int>(shown_).subspan(element.shown),
          element.children);
      return;
    }
    shown_.resize(element.shown);
    open_.pop_back();
  }

  DocumentVerdict Verdict() {
    return SchemaVerdict(validator_.EndDocument(), message_);
  }

 private:
  struct Open {
    int label;
    size_t shown;     // where its child labels start in shown_
    size_t children;  // started so far
  };

  void Latch() { violated_depth_ = validator_.violation().path.size() + 1; }

  const DfaXsd* xsd_;
  StreamingValidator validator_;
  std::vector<Open> open_;
  std::vector<int> shown_;
  size_t violated_depth_ = 0;  // 1 = root; 0 while valid
  std::string message_;
};

// Tokenizes the whole document into `check`, then rules in order: a
// parse error anywhere, the budget (one state per element, then the
// deadline), a name outside Σ, and last the schema, `verdict()`.
template <typename Check, typename Verdict>
DocumentVerdict Run(const Alphabet& sigma, std::string_view xml,
                    Budget* budget, Check* check, Verdict verdict) {
  XmlTokenizer tokens(xml, /*allow_attributes=*/false);
  int64_t elements = 0;
  bool undeclared = false;
  XmlTokenizer::Token token;
  while ((token = tokens.Next()) == XmlTokenizer::Token::kStart ||
         token == XmlTokenizer::Token::kEnd) {
    if (token == XmlTokenizer::Token::kStart) {
      ++elements;
      if (undeclared) continue;
      const int symbol = sigma.Find(tokens.name());
      if (symbol == kNoSymbol) {
        undeclared = true;
      } else {
        check->StartElement(symbol);
      }
    } else if (!undeclared) {
      check->EndElement();
    }
  }
  if (token == XmlTokenizer::Token::kError) {
    return ErrorVerdict(tokens.status());
  }
  // The pre-parse deadline check alone lets one huge document blow the
  // shared deadline unboundedly: charge its elements against the state
  // quota and re-sample the clock before ruling on it.
  Status charged = Budget::ChargeStates(budget, elements);
  if (charged.ok()) charged = Budget::CheckDeadline(budget);
  if (!charged.ok()) return ErrorVerdict(charged);
  if (undeclared) {
    return SchemaVerdict(false,
                         "document uses elements the schema does not declare");
  }
  return verdict();
}

}  // namespace

DocumentVerdict ValidateDocument(const CompiledSchema& schema,
                                 std::string_view xml, Budget* budget) {
  Status deadline = Budget::CheckDeadline(budget);
  if (!deadline.ok()) return ErrorVerdict(deadline);
  if (schema.single_type) {
    XsdCheck check(&schema.xsd);
    return Run(schema.edtd.sigma, xml, budget, &check,
               [&check] { return check.Verdict(); });
  }
  // Otherwise E11's bottom-up type-set tracking.
  EdtdTypeTracker tracker(&schema.edtd);
  return Run(schema.edtd.sigma, xml, budget, &tracker, [&tracker] {
    return SchemaVerdict(tracker.Accepts(),
                         "document not in the schema language");
  });
}

namespace {

DocumentVerdict ValidateOne(const CompiledSchema& schema,
                            const BatchDocument& document, Budget* budget) {
  if (!document.read_error.empty()) {
    DocumentVerdict verdict;
    verdict.kind = DocumentVerdict::Kind::kError;
    verdict.message = document.read_error;
    verdict.error_code = StatusCode::kNotFound;
    return verdict;
  }
  return ValidateDocument(schema, document.xml, budget);
}

}  // namespace

BatchResult BatchValidate(const CompiledSchema& schema,
                          const std::vector<BatchDocument>& documents,
                          const BatchOptions& options) {
  ScopedSpan span("batch.validate");
  const int n = static_cast<int>(documents.size());
  span.AddArg("documents", n);
  BatchResult result;
  result.verdicts.resize(documents.size());

  const int jobs =
      options.jobs <= 0 ? ThreadPool::DefaultThreads() : options.jobs;
  span.AddArg("jobs", jobs);
  auto validate_index = [&](int i) {
    result.verdicts[i] = ValidateOne(schema, documents[i], options.budget);
  };
  if (jobs <= 1) {
    ThreadPool::ParallelFor(nullptr, n, validate_index);
  } else {
    // The calling thread participates in ParallelFor, so jobs - 1
    // workers gives `jobs` threads draining the batch.
    ThreadPool pool(jobs - 1);
    pool.ParallelFor(n, validate_index);
  }

  for (const DocumentVerdict& verdict : result.verdicts) {
    switch (verdict.kind) {
      case DocumentVerdict::Kind::kValid:
        ++result.num_valid;
        break;
      case DocumentVerdict::Kind::kInvalid:
        ++result.num_invalid;
        break;
      case DocumentVerdict::Kind::kError:
        ++result.num_errors;
        break;
    }
  }
  GetCounter("batch.documents")->Increment(n);
  GetCounter("batch.valid")->Increment(result.num_valid);
  GetCounter("batch.invalid")->Increment(result.num_invalid);
  GetCounter("batch.errors")->Increment(result.num_errors);
  return result;
}

std::string FormatBatchReport(const std::vector<BatchDocument>& documents,
                              const BatchResult& result) {
  std::ostringstream os;
  for (size_t i = 0; i < documents.size(); ++i) {
    const DocumentVerdict& verdict = result.verdicts[i];
    os << documents[i].name << ": ";
    switch (verdict.kind) {
      case DocumentVerdict::Kind::kValid:
        os << "VALID";
        break;
      case DocumentVerdict::Kind::kInvalid:
        os << "INVALID: " << verdict.message;
        break;
      case DocumentVerdict::Kind::kError:
        os << "ERROR: " << verdict.message;
        break;
    }
    os << "\n";
  }
  os << documents.size() << " documents: " << result.num_valid << " valid, "
     << result.num_invalid << " invalid, " << result.num_errors
     << " errors\n";
  return os.str();
}

}  // namespace stap
