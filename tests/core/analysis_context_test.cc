// AnalysisContext and the analysis-pass framework: lazy shared indexes and
// phase-3 results are memoized (built at most once, timed at most once, also
// under concurrent first use), the one compliance path and the analyzers
// built on it agree exactly with a brute-force reference, and pass outputs
// are invariant across thread counts.
#include "src/core/analysis_context.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/core/analysis_pass.h"
#include "src/core/held_locks.h"
#include "src/core/mode_analysis.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
#include "src/db/schema.h"
#include "src/vfs/mm_kernel.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class AnalysisContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MixOptions mix;
    mix.ops = 2500;
    mix.seed = 11;
    sim_ = new SimulationResult(SimulateKernelRun(mix, FaultPlan{}));
    snapshot_ = new AnalysisSnapshot(
        BuildSnapshot(sim_->trace, *sim_->registry, DefaultOptions().pipeline));
    // The mm workload's range locks drop non-overlapping holds from the held
    // sequences.
    mm_sim_ = new SimulationResult(SimulateMmRun(mix, FaultPlan{}));
    mm_snapshot_ = new AnalysisSnapshot(
        BuildSnapshot(mm_sim_->trace, *mm_sim_->registry, DefaultOptions().pipeline));
  }
  static void TearDownTestSuite() {
    delete mm_snapshot_;
    delete mm_sim_;
    delete snapshot_;
    delete sim_;
    mm_snapshot_ = nullptr;
    mm_sim_ = nullptr;
    snapshot_ = nullptr;
    sim_ = nullptr;
  }

  static AnalysisOptions DefaultOptions() {
    AnalysisOptions options;
    options.pipeline.filter = VfsKernel::MakeFilterConfig();
    options.pass.documented_rules_text = VfsKernel::DocumentedRulesText();
    return options;
  }

  static size_t CountPhase(const PipelineTimings& timings, const std::string& name) {
    size_t count = 0;
    for (const PhaseTiming& phase : timings.phases) {
      count += phase.phase == name ? 1 : 0;
    }
    return count;
  }

  static SimulationResult* sim_;
  static AnalysisSnapshot* snapshot_;
  static SimulationResult* mm_sim_;
  static AnalysisSnapshot* mm_snapshot_;
};

SimulationResult* AnalysisContextTest::sim_ = nullptr;
AnalysisSnapshot* AnalysisContextTest::snapshot_ = nullptr;
SimulationResult* AnalysisContextTest::mm_sim_ = nullptr;
AnalysisSnapshot* AnalysisContextTest::mm_snapshot_ = nullptr;

TEST_F(AnalysisContextTest, RulesAreMemoizedAndTimedOnce) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>& first = context.rules();
  const std::vector<DerivationResult>& second = context.rules();
  EXPECT_EQ(&first, &second);
  EXPECT_FALSE(first.empty());
  // Touch every other index; none of them re-derives.
  context.member_access_index();
  context.lock_postings();
  context.lock_order_graph();
  context.rules();
  EXPECT_EQ(CountPhase(context.timings(), "rule derivation (interned)"), 1u);
}

TEST_F(AnalysisContextTest, RulesMatchAnalyzeSnapshot) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  std::vector<DerivationResult> direct =
      AnalyzeSnapshot(*snapshot_, DefaultOptions().pipeline);
  const std::vector<DerivationResult>& via = context.rules();
  ASSERT_EQ(via.size(), direct.size());
  for (size_t i = 0; i < via.size(); ++i) {
    EXPECT_EQ(via[i].key.type, direct[i].key.type);
    EXPECT_EQ(via[i].key.member, direct[i].key.member);
    EXPECT_EQ(via[i].access, direct[i].access);
    ASSERT_EQ(via[i].winner.has_value(), direct[i].winner.has_value());
    if (via[i].winner.has_value()) {
      EXPECT_EQ(LockSeqToString(via[i].winner->locks),
                LockSeqToString(direct[i].winner->locks));
      EXPECT_DOUBLE_EQ(via[i].winner->sr, direct[i].winner->sr);
    }
  }
}

TEST_F(AnalysisContextTest, ConcurrentFirstUseBuildsOnce) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>* seen[4] = {};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&context, &seen, i] { seen[i] = &context.rules(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(seen[i], seen[0]);
  }
  EXPECT_EQ(CountPhase(context.timings(), "rule derivation (interned)"), 1u);
}

TEST_F(AnalysisContextTest, TakeRulesMovesTheMemoizedSet) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  size_t derived = context.rules().size();
  std::vector<DerivationResult> taken = context.TakeRules();
  EXPECT_EQ(taken.size(), derived);
}

TEST_F(AnalysisContextTest, MemberAccessIndexMatchesEffectiveScan) {
  const ObservationStore& store = snapshot_->observations;
  MemberAccessIndex index = MemberAccessIndex::Build(store);
  for (const auto& [key, groups] : store.groups()) {
    const MemberAccessIndex::Entry* entry = index.Find(key);
    ASSERT_NE(entry, nullptr);
    for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < groups.size(); ++i) {
        if (groups[i].effective() == access) {
          expected.push_back(static_cast<uint32_t>(i));
        }
      }
      EXPECT_EQ(entry->For(access), expected);
      EXPECT_EQ(index.Count(key, access), store.CountObservations(key, access));
    }
  }
}

TEST_F(AnalysisContextTest, ComplyingSeqsMatchesBruteForce) {
  const ObservationStore& store = snapshot_->observations;
  LockPostingIndex postings = LockPostingIndex::Build(store);
  // The empty rule complies with every distinct sequence.
  EXPECT_EQ(postings.ComplyingSeqs(store, IdSeq{}).size(), store.distinct_seqs());
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  size_t rules_checked = 0;
  for (const DerivationResult& result : context.rules()) {
    if (!result.winner.has_value() || result.winner->is_no_lock()) {
      continue;
    }
    std::optional<IdSeq> rule_ids = store.pool().FindSeq(result.winner->locks);
    ASSERT_TRUE(rule_ids.has_value());
    std::vector<uint32_t> expected;
    for (uint32_t seq = 0; seq < store.distinct_seqs(); ++seq) {
      if (IsSubsequenceIds(*rule_ids, store.id_seq(seq))) {
        expected.push_back(seq);
      }
    }
    EXPECT_EQ(postings.ComplyingSeqs(store, *rule_ids), expected);
    ++rules_checked;
  }
  EXPECT_GT(rules_checked, 0u);
}

// Brute-force reference for RuleCompliance::ForEachGroup: every group of
// `key` in store order, filtered by effective access, judged with the
// string-level subsequence test.
std::vector<std::pair<const ObservationGroup*, bool>> ReferenceCompliance(
    const ObservationStore& store, const MemberObsKey& key, AccessType access,
    const LockSeq& rule) {
  std::vector<std::pair<const ObservationGroup*, bool>> visited;
  for (const ObservationGroup& group : store.GroupsFor(key)) {
    if (group.effective() == access) {
      visited.emplace_back(&group, IsSubsequence(rule, store.seq(group.lockseq_id)));
    }
  }
  return visited;
}

// The populations the rule checker scopes a documented rule to: the named
// subclass, or the unsubclassed population plus every subclass. Empty when
// the rule names an unknown type, member or subclass.
std::vector<MemberObsKey> DocumentedRuleKeys(const TypeRegistry& registry,
                                             const LockingRule& rule) {
  std::optional<TypeId> type = registry.FindType(rule.member.type_name);
  if (!type.has_value()) {
    return {};
  }
  std::optional<MemberIndex> member = registry.layout(*type).FindMember(rule.member.member_name);
  if (!member.has_value()) {
    return {};
  }
  std::vector<SubclassId> subclasses = {kNoSubclass};
  if (rule.member.subclass.empty()) {
    for (SubclassId sub : registry.SubclassesOf(*type)) {
      subclasses.push_back(sub);
    }
  } else {
    std::optional<SubclassId> sub = registry.FindSubclass(*type, rule.member.subclass);
    if (!sub.has_value()) {
      return {};
    }
    subclasses = {*sub};
  }
  std::vector<MemberObsKey> keys;
  for (SubclassId sub : subclasses) {
    MemberObsKey key;
    key.type = *type;
    key.subclass = sub;
    key.member = *member;
    keys.push_back(key);
  }
  return keys;
}

// Compares the shared compliance helper against the reference for every
// winning rule of `context` and every rule of `documented_text`, the latter
// on each population the rule checker scopes it to.
void ExpectComplianceMatchesReference(AnalysisContext& context,
                                      const std::string& documented_text) {
  const ObservationStore& store = context.observations();
  size_t complying = 0;
  size_t violating = 0;
  auto compare = [&](const MemberObsKey& key, AccessType access, const LockSeq& rule) {
    std::vector<std::pair<const ObservationGroup*, bool>> visited;
    context.Compliance(rule).ForEachGroup(
        key, access, [&](const ObservationGroup& group, bool complies) {
          visited.emplace_back(&group, complies);
        });
    EXPECT_EQ(visited, ReferenceCompliance(store, key, access, rule))
        << LockSeqToString(rule) << " [" << AccessTypeName(access) << "]";
    for (const auto& [group, complies] : visited) {
      ++(complies ? complying : violating);
    }
  };

  for (const DerivationResult& result : context.rules()) {
    if (result.winner.has_value()) {
      compare(result.key, result.access, result.winner->locks);
    }
  }

  auto documented = RuleSet::ParseText(documented_text);
  ASSERT_TRUE(documented.ok());
  for (const LockingRule& rule : documented.value().rules()) {
    std::vector<MemberObsKey> keys = DocumentedRuleKeys(context.registry(), rule);
    ASSERT_FALSE(keys.empty()) << rule.ToString();
    for (const MemberObsKey& key : keys) {
      compare(key, rule.access, rule.locks);
    }
  }
  EXPECT_GT(complying, 0u);
  EXPECT_GT(violating, 0u);
}

TEST_F(AnalysisContextTest, ComplianceMatchesBruteForceReference) {
  AnalysisContext vfs(snapshot_, sim_->registry.get(), DefaultOptions());
  ExpectComplianceMatchesReference(vfs, VfsKernel::DocumentedRulesText());

  // Compliance on the mm snapshot must see exactly the range-filtered
  // sequences.
  AnalysisContext mm(mm_snapshot_, mm_sim_->registry.get(), DefaultOptions());
  ExpectComplianceMatchesReference(mm, MmKernel::DocumentedRulesText());
}

// The analyzers built on the context against plain, index-free
// recomputations over the brute-force reference.
TEST_F(AnalysisContextTest, IndexedCheckerMatchesPlain) {
  auto rules = RuleSet::ParseText(VfsKernel::DocumentedRulesText());
  ASSERT_TRUE(rules.ok());
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  std::vector<RuleCheckResult> results = RuleChecker(context).CheckAll(rules.value());
  ASSERT_EQ(results.size(), rules.value().size());
  for (size_t i = 0; i < results.size(); ++i) {
    const LockingRule& rule = rules.value().rules()[i];
    uint64_t sa = 0;
    uint64_t total = 0;
    for (const MemberObsKey& key : DocumentedRuleKeys(*sim_->registry, rule)) {
      for (const auto& [group, complies] :
           ReferenceCompliance(snapshot_->observations, key, rule.access, rule.locks)) {
        ++total;
        sa += complies ? 1 : 0;
      }
    }
    RuleVerdict verdict = total == 0      ? RuleVerdict::kUnobserved
                          : sa == total ? RuleVerdict::kCorrect
                          : sa == 0     ? RuleVerdict::kIncorrect
                                        : RuleVerdict::kAmbivalent;
    EXPECT_EQ(results[i].verdict, verdict) << rule.ToString();
    EXPECT_EQ(results[i].sa, sa) << rule.ToString();
    EXPECT_EQ(results[i].total, total) << rule.ToString();
    EXPECT_DOUBLE_EQ(results[i].sr, total == 0 ? 0.0 : static_cast<double>(sa) / total);
  }
}

TEST_F(AnalysisContextTest, IndexedFinderMatchesPlain) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>& rules = context.rules();
  const ObservationStore& store = snapshot_->observations;
  const Table& accesses = snapshot_->db.table(LockDocSchema::kAccesses);
  const size_t seq_column = accesses.ColumnIndex("seq");
  const size_t type_column = accesses.ColumnIndex("access_type");
  std::vector<Violation> expected;
  for (const DerivationResult& result : rules) {
    if (!result.winner.has_value() || result.winner->is_no_lock() ||
        result.winner->sr >= 1.0) {
      continue;
    }
    for (const auto& [group, complies] :
         ReferenceCompliance(store, result.key, result.access, result.winner->locks)) {
      if (complies) {
        continue;
      }
      Violation violation;
      violation.rule = result.winner->locks;
      violation.held = store.seq(group->lockseq_id);
      for (uint64_t seq : group->seqs) {
        std::vector<RowId> rows = accesses.LookupEqual(seq_column, seq);
        ASSERT_EQ(rows.size(), 1u);
        if (static_cast<AccessType>(accesses.GetUint64(rows[0], type_column)) ==
            result.access) {
          violation.seqs.push_back(seq);
        }
      }
      if (!violation.seqs.empty()) {
        expected.push_back(std::move(violation));
      }
    }
  }
  std::vector<Violation> found = ViolationFinder(context).FindAll(rules);
  ASSERT_EQ(found.size(), expected.size());
  EXPECT_FALSE(found.empty());
  for (size_t i = 0; i < found.size(); ++i) {
    EXPECT_EQ(LockSeqToString(found[i].rule), LockSeqToString(expected[i].rule));
    EXPECT_EQ(LockSeqToString(found[i].held), LockSeqToString(expected[i].held));
    EXPECT_EQ(found[i].seqs, expected[i].seqs);
  }
}

// The memoized mode entries of a context at `jobs` against a plain
// recomputation: the brute-force compliance reference plus a greedy match
// over the string-classified ClassifyHeldLocks list. Returns how many
// complying groups held more locks than their observed sequence names.
size_t ExpectModesMatchPlain(const AnalysisSnapshot& snapshot, const TypeRegistry& registry,
                             AnalysisOptions options, size_t jobs) {
  options.pipeline.jobs = jobs;
  AnalysisContext context(&snapshot, &registry, std::move(options));
  ModeAnalyzer analyzer(context);
  const ObservationStore& store = snapshot.observations;
  size_t wider_held = 0;
  std::string expected;
  for (const DerivationResult& result : context.rules()) {
    if (!result.winner.has_value() || result.winner->locks.empty()) {
      continue;
    }
    ModeReportEntry entry;
    entry.key = result.key;
    entry.access = result.access;
    entry.rule = result.winner->locks;
    for (const LockClass& lock : entry.rule) {
      entry.usages.push_back(ModeUsage{lock});
    }
    for (const auto& [group, complies] :
         ReferenceCompliance(store, result.key, result.access, entry.rule)) {
      if (!complies) {
        continue;
      }
      std::vector<HeldLockInfo> held =
          ClassifyHeldLocks(snapshot.db, registry, group->txn_id, group->alloc_id);
      wider_held += held.size() != store.seq(group->lockseq_id).size() ? 1 : 0;
      size_t rule_pos = 0;
      for (const HeldLockInfo& info : held) {
        if (rule_pos < entry.rule.size() && info.lock_class == entry.rule[rule_pos]) {
          ++(info.mode == AcquireMode::kShared ? entry.usages[rule_pos].shared
                                               : entry.usages[rule_pos].exclusive);
          ++rule_pos;
        }
      }
    }
    for (const ModeUsage& usage : entry.usages) {
      entry.suspicious |= result.access == AccessType::kWrite && usage.shared > 0;
    }
    expected += analyzer.RenderEntry(entry);
  }
  std::string rendered;
  for (const ModeReportEntry& entry : context.mode_entries()) {
    rendered += analyzer.RenderEntry(entry);
  }
  EXPECT_FALSE(rendered.empty());
  EXPECT_EQ(rendered, expected) << "jobs=" << jobs;
  return wider_held;
}

TEST_F(AnalysisContextTest, IndexedModesMatchPlain) {
  for (size_t jobs : {1, 2, 8}) {
    ExpectModesMatchPlain(*snapshot_, *sim_->registry, DefaultOptions(), jobs);
    // On mm, range holds that extraction dropped from a group's sequence
    // still count toward its modes.
    EXPECT_GT(ExpectModesMatchPlain(*mm_snapshot_, *mm_sim_->registry, DefaultOptions(), jobs),
              0u);
  }
}

// Every single-input pass, run twice over one context: each memoized
// result is built (and timed) once.
TEST_F(AnalysisContextTest, PassesBuildEachMemoOnce) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  for (int round = 0; round < 2; ++round) {
    for (const auto& pass : PassRegistry::Default().passes()) {
      if (pass->name() == "diff") {
        continue;  // Needs a baseline input.
      }
      PassOutput out;
      Status status = pass->Run(context, out);
      EXPECT_TRUE(status.ok()) << pass->name() << ": " << status.ToString();
    }
  }
  EXPECT_EQ(CountPhase(context.timings(), "mode analysis"), 1u);
  EXPECT_EQ(CountPhase(context.timings(), "violation finding"), 1u);
  EXPECT_EQ(CountPhase(context.timings(), "rule checking"), 1u);
  EXPECT_EQ(CountPhase(context.timings(), "rule derivation (interned)"), 1u);
}

TEST_F(AnalysisContextTest, CheckResultsKeepOneSlot) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::string vfs = VfsKernel::DocumentedRulesText();
  auto first = context.check_results(vfs);
  auto again = context.check_results(vfs);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value().get(), again.value().get());
  EXPECT_FALSE(first.value()->empty());
  // Another text replaces the slot; the old results stay valid.
  auto empty = context.check_results("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value()->empty());
  EXPECT_FALSE(first.value()->empty());
  EXPECT_EQ(CountPhase(context.timings(), "rule checking"), 2u);
  // A parse error is returned and leaves the slot alone.
  EXPECT_FALSE(context.check_results("not a rule").ok());
  auto kept = context.check_results("");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().get(), empty.value().get());
  EXPECT_EQ(CountPhase(context.timings(), "rule checking"), 2u);
}

// Passes that share memos, started together on a fresh context, print what
// a serial run prints.
TEST_F(AnalysisContextTest, ConcurrentPassesMatchSerial) {
  const std::vector<std::string> names = {"report", "modes", "violations", "check"};
  auto run = [&](AnalysisContext& context, const std::string& name) {
    PassOutput out;
    Status status = PassRegistry::Default().Find(name)->Run(context, out);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    return out.text;
  };
  AnalysisContext serial_context(snapshot_, sim_->registry.get(), DefaultOptions());
  std::vector<std::string> serial;
  for (const std::string& name : names) {
    serial.push_back(run(serial_context, name));
  }

  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  std::vector<std::string> concurrent(names.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&, i] { concurrent[i] = run(context, names[i]); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(CountPhase(context.timings(), "mode analysis"), 1u);
  EXPECT_EQ(CountPhase(context.timings(), "violation finding"), 1u);
  EXPECT_EQ(CountPhase(context.timings(), "rule checking"), 1u);
}

TEST_F(AnalysisContextTest, RegistryHasCanonicalPassOrder) {
  const PassRegistry& registry = PassRegistry::Default();
  EXPECT_EQ(registry.JoinedNames(),
            "check, derive, violations, lock-order, modes, report, diff");
  EXPECT_NE(registry.Find("check"), nullptr);
  EXPECT_NE(registry.Find("report"), nullptr);
  EXPECT_EQ(registry.Find("bogus"), nullptr);
  EXPECT_EQ(registry.Find("check")->name(), "check");
}

TEST_F(AnalysisContextTest, PassOutputsAreThreadCountInvariant) {
  auto run_all = [&](size_t jobs) {
    AnalysisOptions options = DefaultOptions();
    options.pipeline.jobs = jobs;
    AnalysisOptions baseline_options = DefaultOptions();
    baseline_options.pipeline.jobs = jobs;
    AnalysisContext baseline(snapshot_, sim_->registry.get(), std::move(baseline_options));
    AnalysisContext context(snapshot_, sim_->registry.get(), std::move(options));
    context.pass_options().baseline = &baseline;
    std::string all;
    for (const auto& pass : PassRegistry::Default().passes()) {
      PassOutput out;
      Status status = pass->Run(context, out);
      EXPECT_TRUE(status.ok()) << pass->name() << ": " << status.ToString();
      all += out.text;
    }
    return all;
  };
  std::string serial = run_all(1);
  std::string parallel = run_all(3);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Diffing an input against itself reports no drift.
  EXPECT_NE(serial.find("no rule drift"), std::string::npos);
}

TEST_F(AnalysisContextTest, DiffPassWithoutBaselineIsAnError) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const AnalysisPass* diff = PassRegistry::Default().Find("diff");
  ASSERT_NE(diff, nullptr);
  PassOutput out;
  Status status = diff->Run(context, out);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(out.text.empty());
}

}  // namespace
}  // namespace lockdoc
