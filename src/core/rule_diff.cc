#include "src/core/rule_diff.h"

#include <algorithm>
#include <map>

#include "src/util/string_util.h"

namespace lockdoc {

std::string_view RuleDriftKindName(RuleDriftKind kind) {
  switch (kind) {
    case RuleDriftKind::kAdded:
      return "+";
    case RuleDriftKind::kRemoved:
      return "-";
    case RuleDriftKind::kChanged:
      return "~";
    case RuleDriftKind::kUnchanged:
      return "=";
  }
  return "?";
}

std::vector<RuleDrift> DiffRules(const std::vector<DerivationResult>& old_rules,
                                 const std::vector<DerivationResult>& new_rules,
                                 const RuleDiffOptions& options) {
  using Key = std::pair<MemberObsKey, AccessType>;
  std::map<Key, const DerivationResult*> old_map;
  std::map<Key, const DerivationResult*> new_map;
  for (const DerivationResult& rule : old_rules) {
    if (rule.winner.has_value()) {
      old_map[{rule.key, rule.access}] = &rule;
    }
  }
  for (const DerivationResult& rule : new_rules) {
    if (rule.winner.has_value()) {
      new_map[{rule.key, rule.access}] = &rule;
    }
  }

  std::vector<RuleDrift> drifts;
  for (const auto& [key, old_rule] : old_map) {
    RuleDrift drift;
    drift.key = key.first;
    drift.access = key.second;
    drift.old_rule = old_rule->winner->locks;
    drift.old_sr = old_rule->winner->sr;
    auto it = new_map.find(key);
    if (it == new_map.end()) {
      drift.kind = RuleDriftKind::kRemoved;
    } else {
      drift.new_rule = it->second->winner->locks;
      drift.new_sr = it->second->winner->sr;
      drift.kind = (drift.new_rule == drift.old_rule) ? RuleDriftKind::kUnchanged
                                                      : RuleDriftKind::kChanged;
    }
    if (drift.kind != RuleDriftKind::kUnchanged || options.include_unchanged) {
      drifts.push_back(std::move(drift));
    }
  }
  for (const auto& [key, new_rule] : new_map) {
    if (old_map.count(key) != 0) {
      continue;
    }
    RuleDrift drift;
    drift.key = key.first;
    drift.access = key.second;
    drift.kind = RuleDriftKind::kAdded;
    drift.new_rule = new_rule->winner->locks;
    drift.new_sr = new_rule->winner->sr;
    drifts.push_back(std::move(drift));
  }

  std::sort(drifts.begin(), drifts.end(), [](const RuleDrift& a, const RuleDrift& b) {
    if (a.key != b.key) {
      return a.key < b.key;
    }
    return a.access < b.access;
  });
  return drifts;
}

std::string RenderRuleDiff(const std::vector<RuleDrift>& drifts, const TypeRegistry& registry) {
  std::string out;
  for (const RuleDrift& drift : drifts) {
    std::string member = QualifiedMemberName(registry, drift.key);
    switch (drift.kind) {
      case RuleDriftKind::kAdded:
        out += StrFormat("+ %s %s: %s (sr %.2f)\n", member.c_str(),
                         AccessTypeName(drift.access), LockSeqToString(drift.new_rule).c_str(),
                         drift.new_sr);
        break;
      case RuleDriftKind::kRemoved:
        out += StrFormat("- %s %s: %s (sr %.2f)\n", member.c_str(),
                         AccessTypeName(drift.access), LockSeqToString(drift.old_rule).c_str(),
                         drift.old_sr);
        break;
      case RuleDriftKind::kChanged:
        out += StrFormat("~ %s %s: %s -> %s (sr %.2f -> %.2f)\n", member.c_str(),
                         AccessTypeName(drift.access), LockSeqToString(drift.old_rule).c_str(),
                         LockSeqToString(drift.new_rule).c_str(), drift.old_sr, drift.new_sr);
        break;
      case RuleDriftKind::kUnchanged:
        out += StrFormat("= %s %s: %s\n", member.c_str(), AccessTypeName(drift.access),
                         LockSeqToString(drift.new_rule).c_str());
        break;
    }
  }
  return out;
}

}  // namespace lockdoc
