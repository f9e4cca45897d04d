#include "src/core/mode_analysis.h"

#include <optional>

#include "src/core/analysis_context.h"
#include "src/core/held_locks.h"
#include "src/util/string_util.h"

namespace lockdoc {

ModeAnalyzer::ModeAnalyzer(AnalysisContext& context) : context_(context) {}

std::vector<ModeReportEntry> ModeAnalyzer::Analyze(
    const std::vector<DerivationResult>& results) const {
  const ObservationStore& store = context_.observations();
  const HeldLockIds held_ids =
      HeldLockIds::Build(context_.db(), context_.registry(), store.pool());
  // Each result fills its own slot; slots are merged in rule order below.
  std::vector<std::optional<ModeReportEntry>> slots(results.size());
  context_.pool().ParallelFor(results.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const DerivationResult& result = results[i];
      if (!result.winner.has_value() || result.winner->locks.empty()) {
        continue;
      }
      ModeReportEntry& entry = slots[i].emplace();
      entry.key = result.key;
      entry.access = result.access;
      entry.rule = result.winner->locks;
      entry.usages.resize(entry.rule.size());
      for (size_t k = 0; k < entry.rule.size(); ++k) {
        entry.usages[k].lock = entry.rule[k];
      }

      // A rule naming a class the pool never interned has no complying
      // observation, so it keeps all-zero usages.
      std::optional<IdSeq> rule_ids = store.pool().FindSeq(entry.rule);
      if (rule_ids.has_value()) {
        RuleCompliance compliance = context_.Compliance(entry.rule);
        compliance.ForEachGroup(result.key, result.access,
                                [&](const ObservationGroup& group, bool complies) {
          if (!complies) {
            return;  // Only complying observations characterize the rule.
          }
          // Greedy subsequence match over every held lock (range holds
          // included) to attribute a mode to each rule lock.
          size_t rule_pos = 0;
          held_ids.ForEachHeld(group.txn_id, group.alloc_id, [&](LockId id, AcquireMode mode) {
            if (rule_pos < rule_ids->size() && id == (*rule_ids)[rule_pos]) {
              ModeUsage& usage = entry.usages[rule_pos++];
              ++(mode == AcquireMode::kShared ? usage.shared : usage.exclusive);
            }
          });
        });
      }

      for (const ModeUsage& usage : entry.usages) {
        entry.suspicious |= result.access == AccessType::kWrite && usage.shared > 0;
      }
    }
  });

  std::vector<ModeReportEntry> entries;
  for (std::optional<ModeReportEntry>& slot : slots) {
    if (slot.has_value()) {
      entries.push_back(std::move(*slot));
    }
  }
  return entries;
}

std::vector<const ModeReportEntry*> ModeAnalyzer::FindSharedModeWrites() const {
  std::vector<const ModeReportEntry*> suspicious;
  for (const ModeReportEntry& entry : context_.mode_entries()) {
    if (entry.suspicious) {
      suspicious.push_back(&entry);
    }
  }
  return suspicious;
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
