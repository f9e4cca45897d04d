// The analysis-pass framework: every phase-3 analysis (rule checking,
// documentation generation, violation finding, lock ordering, acquisition
// modes, full report, rule diff) expressed as a uniform pass over one
// shared AnalysisContext.
//
// A pass is a pure rendering of context state: it pulls whatever shared
// indexes and results it needs (rules(), lock_order_graph(),
// mode_entries(), violations(), check_results(), ...) — each built lazily,
// at most once per context, no matter how many passes ask — and produces
// the exact bytes its standalone CLI command prints to stdout. Running N passes through one context
// therefore loads the snapshot once and derives rules once, while emitting
// byte-identical output to running the N standalone commands.
#ifndef SRC_CORE_ANALYSIS_PASS_H_
#define SRC_CORE_ANALYSIS_PASS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/analysis_context.h"
#include "src/report/ir.h"
#include "src/util/status.h"

namespace lockdoc {

// What one pass produced: the structured report document, plus its text
// rendering — the exact bytes the standalone CLI command would have written
// to stdout before the IR existed (the byte-compat contract lives in
// src/report/render_text.*). Non-text formats render from `doc`.
struct PassOutput {
  ReportDocument doc;
  std::string text;
};

class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;

  // The stable CLI-facing name ("check", "violations", ...). This is both
  // the standalone command name and the token accepted by
  // `lockdoc analyze --passes`.
  virtual std::string_view name() const = 0;

  // One-line description for usage/help output.
  virtual std::string_view description() const = 0;

  // Runs the pass against `context` with `opts` as the per-run knobs,
  // appending nothing to stdout itself: the pass builds `out.doc` (via
  // Build) and Run fills `out.text` with its text rendering. The context
  // appends phase timings (e.g. "rule checking") when a result is first
  // built. An error status maps to the standalone command's failure path
  // (message to stderr, exit 1).
  //
  // Options are a per-run parameter — not context state — so several
  // requests can run passes over one shared context concurrently, each with
  // its own knobs (the serve scheduler relies on this; the shared indexes
  // and results a pass pulls are option-independent, or keyed by the one
  // option they read, and memoized thread-safely).
  Status Run(AnalysisContext& context, const PassOptions& opts, PassOutput& out) const;

  // Convenience for single-request callers (CLI, tests): runs with the
  // options baked into the context at construction time.
  Status Run(AnalysisContext& context, PassOutput& out) const {
    return Run(context, context.pass_options(), out);
  }

 protected:
  // Builds the pass's report document. `doc.pass` is pre-set to name().
  virtual Status Build(AnalysisContext& context, const PassOptions& opts,
                       ReportDocument& doc) const = 0;
};

// Applies one textual key=value knob onto PassOptions — the shared plumbing
// between CLI flags and serve request files, so a spool request renders the
// exact bytes the equivalent command line would. Accepted keys: "limit"
// (unsigned), "all", "full", "spec", "support" (booleans "0"/"1"/"true"/
// "false"), "type", "subclass" (strings). "all" sets both modes_all and
// diff_all, exactly like the --all flag. Unknown keys and unparseable
// values are errors naming the key.
Status ApplyPassOption(PassOptions& opts, std::string_view key, std::string_view value);

// The ordered collection of registered passes. Registration order is the
// canonical execution order for multi-pass runs.
class PassRegistry {
 public:
  PassRegistry() = default;
  PassRegistry(const PassRegistry&) = delete;
  PassRegistry& operator=(const PassRegistry&) = delete;

  // The built-in registry with every phase-3 pass, in canonical order:
  // check, derive, violations, lock-order, modes, report, diff.
  static const PassRegistry& Default();

  void Register(std::unique_ptr<AnalysisPass> pass);

  // nullptr when no pass has that name.
  const AnalysisPass* Find(std::string_view name) const;

  const std::vector<std::unique_ptr<AnalysisPass>>& passes() const { return passes_; }

  // "check, derive, ..." — for error messages and usage text.
  std::string JoinedNames() const;

 private:
  std::vector<std::unique_ptr<AnalysisPass>> passes_;
};

}  // namespace lockdoc

#endif  // SRC_CORE_ANALYSIS_PASS_H_
