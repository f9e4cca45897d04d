// The rule-violation finder (paper Sec. 5.5 and 7.5): assuming the derived
// winning rules are correct, locate every memory access that does not comply
// and present the developer with the member, the rule, the locks actually
// held, the source location, and the call stack — the starting points for
// hunting real locking bugs.
#ifndef SRC_CORE_VIOLATION_FINDER_H_
#define SRC_CORE_VIOLATION_FINDER_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/derivator.h"
#include "src/core/filter_config.h"
#include "src/core/observations.h"
#include "src/report/ir.h"

namespace lockdoc {

class AnalysisContext;

// One violating folded observation.
struct Violation {
  MemberObsKey key;
  AccessType access = AccessType::kRead;
  LockSeq rule;  // The winning rule that was violated.
  LockSeq held;  // The locks actually held.
  // Raw trace seqs of the violating accesses (only those matching `access`;
  // reads folded away by write-over-read are not re-counted).
  std::vector<uint64_t> seqs;
};

// One row of the paper's Tab. 7.
struct ViolationSummaryRow {
  std::string type_name;  // Qualified (inode:ext4).
  uint64_t events = 0;
  uint64_t members = 0;
  uint64_t contexts = 0;  // Distinct (location, stack) pairs.
};

// The forensic counterexample report (the paper's Tab. 8 examples): the
// violating events aggregated into call-site groups, ranked by evidence,
// each enriched with the held-lock provenance, the nearest complying access
// and an evidence rank, plus blacklist-suppression accounting so filtered
// groups are counted, never silently dropped.
struct ViolationForensics {
  std::vector<CexGroupData> groups;  // At most `limit`, ranked by evidence.
  uint64_t total_groups = 0;         // Groups surviving the blacklist.
  uint64_t shown_groups = 0;         // groups.size(), for convenience.
  uint64_t suppressed_groups = 0;    // Blacklist-suppressed groups.
  uint64_t suppressed_events = 0;    // Their violating events.
};

// Appends the forensics accounting notes ("showing N of M counterexample
// groups", "blacklist suppressed ...") to a report section — shared by the
// violations pass and the report's violation section so both render the
// accounting identically. Emits nothing when nothing was clipped or
// suppressed, keeping untruncated output byte-identical to the pre-IR
// renderer. `report_style` prefixes the first note with a blank line (the
// report's groups end without one).
void AppendForensicsNotes(ReportSection& section, const ViolationForensics& forensics,
                          bool report_style);

class ViolationFinder {
 public:
  // Reads the database, registry, observations and shared indexes from
  // `context`, which must outlive the finder. Violation contexts (access
  // type, source location, stack) are resolved from the accesses table via
  // its seq index; no trace is needed.
  explicit ViolationFinder(AnalysisContext& context);

  // All violations of the winning rules (rules with sr == 1 cannot be
  // violated; the no-lock rule cannot be violated either). Distributed over
  // the context's pool; per-rule violation lists are concatenated in rule
  // order, so output is byte-identical at any thread count.
  std::vector<Violation> FindAll(const std::vector<DerivationResult>& results) const;

  // Tab. 7: per qualified data type, counting every observed type even when
  // it has zero violations.
  std::vector<ViolationSummaryRow> Summarize(const std::vector<Violation>& violations) const;

  // Tab. 8: the violating events grouped by full context and ranked by
  // evidence (event count, then context). `filter` (may be null for no
  // suppression) removes groups whose member is blacklisted or whose stack
  // contains a blacklisted function, counting what it removed; the top
  // `limit` surviving groups are enriched with held locks and the nearest
  // complying access.
  ViolationForensics Forensics(const std::vector<Violation>& violations, size_t limit,
                               const FilterConfig* filter = nullptr) const;

 private:
  // The accesses-table context of one raw trace seq.
  struct AccessContext {
    uint64_t access_type = 0;
    uint64_t file_sid = 0;
    uint64_t line = 0;
    uint64_t stack_id = 0;
  };
  AccessContext ContextOf(uint64_t seq) const;

  // (member, access, rule, held, file, line, stack) — the aggregation key
  // of a counterexample group.
  using ContextKey = std::tuple<std::string, std::string, std::string, std::string,
                                uint64_t, uint64_t, uint64_t>;
  struct ContextAgg {
    uint64_t events = 0;
    uint64_t representative_seq = 0;       // Smallest violating seq in the group.
    const Violation* violation = nullptr;  // First violation feeding the group.
  };
  using ContextMap = std::map<ContextKey, ContextAgg>;
  ContextMap AggregateContexts(const std::vector<Violation>& violations) const;
  // Orders groups by event count (desc), then key (asc) — the evidence rank.
  static std::vector<const ContextMap::value_type*> SortByEvidence(const ContextMap& map);

  // The complying access of `violation`'s (member, access, rule) nearest to
  // `rep_seq` by trace distance (ties to the smaller seq); absent when the
  // rule has no complying access of that type.
  NearestComplyingAccess NearestComplying(const Violation& violation,
                                          uint64_t rep_seq) const;

  AnalysisContext& context_;
};

}  // namespace lockdoc

#endif  // SRC_CORE_VIOLATION_FINDER_H_
