// The full LockDoc report: every analysis the paper's evaluation runs —
// trace statistics, documentation validation, rule mining summary,
// violations, lock ordering — rendered into one text document. This is the
// artifact a kernel developer would actually read; the per-table bench
// binaries exist to compare against the paper, this exists to be used.
#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include <memory>
#include <string>

#include "src/core/analysis_context.h"
#include "src/core/filter_config.h"
#include "src/core/pipeline.h"
#include "src/core/rule.h"
#include "src/model/type_registry.h"
#include "src/report/ir.h"

namespace lockdoc {

struct ReportOptions {
  // Validate these documented rules (empty: skip the validation section).
  std::string documented_rules_text;
  // Maximum violation examples listed; clipping is reported ("showing N of
  // M counterexample groups"), never silent.
  size_t max_violation_examples = 10;
  // Include the lock-ordering section.
  bool lock_order = true;
  // Include the acquisition-mode section.
  bool modes = true;
  // Include generated documentation for every observed population (can be
  // long); when false only the mining summary table is included.
  bool full_documentation = false;
  // Forensics blacklist for the violations section (null: no suppression).
  std::shared_ptr<const FilterConfig> forensics_filter;
};

// Builds the complete report as a structured document from a shared
// analysis context: rules, observation indexes, and the lock-order graph
// all come from (and are memoized in) `context`, so a multi-pass run pays
// for each at most once. The context must carry a type registry.
ReportDocument BuildReportDocument(AnalysisContext& context,
                                   const ReportOptions& options = {});

// The document's text rendering — byte-identical to the pre-IR renderer.
std::string RenderReport(AnalysisContext& context, const ReportOptions& options = {});

}  // namespace lockdoc

#endif  // SRC_CORE_REPORT_H_
