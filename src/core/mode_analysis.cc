#include "src/core/mode_analysis.h"

#include "src/core/analysis_context.h"
#include "src/core/held_locks.h"
#include "src/util/string_util.h"

namespace lockdoc {

ModeAnalyzer::ModeAnalyzer(AnalysisContext& context) : context_(context) {}

std::vector<ModeReportEntry> ModeAnalyzer::Analyze(
    const std::vector<DerivationResult>& results) const {
  std::vector<ModeReportEntry> entries;
  for (const DerivationResult& result : results) {
    if (!result.winner.has_value() || result.winner->locks.empty()) {
      continue;
    }
    ModeReportEntry entry;
    entry.key = result.key;
    entry.access = result.access;
    entry.rule = result.winner->locks;
    entry.usages.resize(entry.rule.size());
    for (size_t i = 0; i < entry.rule.size(); ++i) {
      entry.usages[i].lock = entry.rule[i];
    }

    RuleCompliance compliance = context_.Compliance(entry.rule);
    compliance.ForEachGroup(result.key, result.access,
                            [&](const ObservationGroup& group, bool complies) {
      if (!complies) {
        return;  // Only complying observations characterize the rule.
      }
      std::vector<HeldLockInfo> held =
          ClassifyHeldLocks(context_.db(), context_.registry(), group.txn_id, group.alloc_id);
      // Greedy subsequence match to attribute a mode to each rule lock.
      size_t rule_pos = 0;
      for (const HeldLockInfo& h : held) {
        if (rule_pos == entry.rule.size()) {
          break;
        }
        if (h.lock_class == entry.rule[rule_pos]) {
          if (h.mode == AcquireMode::kShared) {
            ++entry.usages[rule_pos].shared;
          } else {
            ++entry.usages[rule_pos].exclusive;
          }
          ++rule_pos;
        }
      }
    });

    if (result.access == AccessType::kWrite) {
      for (const ModeUsage& usage : entry.usages) {
        if (usage.shared > 0) {
          entry.suspicious = true;
        }
      }
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<ModeReportEntry> ModeAnalyzer::FindSharedModeWrites(
    const std::vector<DerivationResult>& results) const {
  std::vector<ModeReportEntry> all = Analyze(results);
  std::erase_if(all, [](const ModeReportEntry& entry) { return !entry.suspicious; });
  return all;
}

std::string ModeAnalyzer::RenderEntry(const ModeReportEntry& entry) const {
  std::string member = QualifiedMemberName(context_.registry(), entry.key);
  std::string out =
      StrFormat("%s [%s]: %s%s\n", member.c_str(), AccessTypeName(entry.access),
                LockSeqToString(entry.rule).c_str(),
                entry.suspicious ? "   ** write under shared hold **" : "");
  for (const ModeUsage& usage : entry.usages) {
    if (usage.shared + usage.exclusive == 0) {
      continue;
    }
    out += StrFormat("    %-45s shared=%llu exclusive=%llu (%.0f%% shared)\n",
                     usage.lock.ToString().c_str(),
                     static_cast<unsigned long long>(usage.shared),
                     static_cast<unsigned long long>(usage.exclusive),
                     usage.shared_fraction() * 100.0);
  }
  return out;
}

void ModeAnalyzer::AddEntryNode(ReportSection& section, const ModeReportEntry& entry) const {
  ReportNode& node = AddTextNode(section, "mode-entry", RenderEntry(entry));
  node.fields = {{"member", QualifiedMemberName(context_.registry(), entry.key)},
                 {"access", AccessTypeName(entry.access)},
                 {"rule", LockSeqToString(entry.rule)},
                 {"suspicious", entry.suspicious ? "true" : "false"}};
}

}  // namespace lockdoc
