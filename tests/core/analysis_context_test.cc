// AnalysisContext and the analysis-pass framework: lazy shared indexes are
// memoized (built at most once, timed at most once), index-backed analyzers
// agree exactly with the index-free originals, and pass outputs are
// invariant across thread counts.
#include "src/core/analysis_context.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/core/analysis_pass.h"
#include "src/core/mode_analysis.h"
#include "src/core/rule_checker.h"
#include "src/core/violation_finder.h"
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
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete sim_;
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
};

SimulationResult* AnalysisContextTest::sim_ = nullptr;
AnalysisSnapshot* AnalysisContextTest::snapshot_ = nullptr;

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

TEST_F(AnalysisContextTest, IndexedCheckerMatchesPlain) {
  auto rules = RuleSet::ParseText(VfsKernel::DocumentedRulesText());
  ASSERT_TRUE(rules.ok());
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  RuleChecker plain(sim_->registry.get(), &snapshot_->observations);
  RuleChecker indexed(sim_->registry.get(), &snapshot_->observations,
                      &context.member_access_index(), &context.lock_postings());
  std::vector<RuleCheckResult> a = plain.CheckAll(rules.value());
  std::vector<RuleCheckResult> b = indexed.CheckAll(rules.value());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].verdict, b[i].verdict);
    EXPECT_EQ(a[i].sa, b[i].sa);
    EXPECT_EQ(a[i].total, b[i].total);
    EXPECT_DOUBLE_EQ(a[i].sr, b[i].sr);
  }
}

TEST_F(AnalysisContextTest, IndexedFinderMatchesPlain) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>& rules = context.rules();
  ViolationFinder plain(&snapshot_->db, sim_->registry.get(), &snapshot_->observations);
  ViolationFinder indexed(&snapshot_->db, sim_->registry.get(), &snapshot_->observations,
                          &context.member_access_index(), &context.lock_postings());
  std::vector<Violation> a = plain.FindAll(rules);
  std::vector<Violation> b = indexed.FindAll(rules);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(LockSeqToString(a[i].rule), LockSeqToString(b[i].rule));
    EXPECT_EQ(LockSeqToString(a[i].held), LockSeqToString(b[i].held));
    EXPECT_EQ(a[i].seqs, b[i].seqs);
  }
}

TEST_F(AnalysisContextTest, IndexedModesMatchPlain) {
  AnalysisContext context(snapshot_, sim_->registry.get(), DefaultOptions());
  const std::vector<DerivationResult>& rules = context.rules();
  ModeAnalyzer plain(&snapshot_->db, sim_->registry.get(), &snapshot_->observations);
  ModeAnalyzer indexed(&snapshot_->db, sim_->registry.get(), &snapshot_->observations,
                       &context.member_access_index(), &context.lock_postings());
  EXPECT_EQ(plain.Render(plain.Analyze(rules)), indexed.Render(indexed.Analyze(rules)));
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
