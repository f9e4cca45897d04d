// Acquisition-mode analysis — a refinement beyond the paper's rule model.
//
// LockDoc's rules say WHICH locks protect a member, but reader/writer
// primitives (rw_semaphore, rwlock_t) make the acquisition MODE part of the
// contract: a shared (reader) hold permits concurrent readers, so a *write*
// to the protected member under a merely-shared hold is a latent data race
// even though the lock itself is held. This module annotates each winning
// rule's locks with the observed shared/exclusive mode distribution and
// flags write rules that are satisfied by shared holds.
#ifndef SRC_CORE_MODE_ANALYSIS_H_
#define SRC_CORE_MODE_ANALYSIS_H_

#include <string>
#include <vector>

#include "src/core/derivator.h"
#include "src/report/ir.h"

namespace lockdoc {

class AnalysisContext;

// Mode distribution of one lock within one winning rule.
struct ModeUsage {
  LockClass lock;
  uint64_t shared = 0;     // Complying observations holding the lock shared.
  uint64_t exclusive = 0;  // ... holding it exclusively.

  double shared_fraction() const {
    uint64_t total = shared + exclusive;
    return total == 0 ? 0.0 : static_cast<double>(shared) / static_cast<double>(total);
  }
};

struct ModeReportEntry {
  MemberObsKey key;
  AccessType access = AccessType::kRead;
  LockSeq rule;
  std::vector<ModeUsage> usages;  // One per rule lock, in rule order.
  // True when a WRITE rule's lock is held shared in at least one complying
  // observation — the latent-race pattern this analysis exists to find.
  bool suspicious = false;
};

class ModeAnalyzer {
 public:
  // Reads the database, registry, observations and shared indexes from
  // `context`, which must outlive the analyzer.
  explicit ModeAnalyzer(AnalysisContext& context);

  // Annotates every derivation result whose winner names at least one lock.
  // Entries are in `results` order. Counting runs on interned lock ids
  // (HeldLockIds), one rule per work item over the context's pool, so the
  // entries are identical at any thread count. Passes read the memoized
  // AnalysisContext::mode_entries() instead of calling this.
  std::vector<ModeReportEntry> Analyze(const std::vector<DerivationResult>& results) const;

  // The suspicious entries (writes under shared holds) among the context's
  // memoized mode_entries(), in rule order.
  std::vector<const ModeReportEntry*> FindSharedModeWrites() const;

  // Text rendering of one entry.
  std::string RenderEntry(const ModeReportEntry& entry) const;

  // Appends `entry` as one "mode-entry" node (its text plus the member,
  // access, rule and suspicious fields) — shared by the modes pass and the
  // report's modes section.
  void AddEntryNode(ReportSection& section, const ModeReportEntry& entry) const;

 private:
  AnalysisContext& context_;
};

}  // namespace lockdoc

#endif  // SRC_CORE_MODE_ANALYSIS_H_
