#include "src/core/mode_analysis.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/analysis_context.h"
#include "tests/core/test_helpers.h"

namespace lockdoc {
namespace {

struct ModeWorld {
  TestWorld world;
  AnalysisSnapshot snapshot;
  std::unique_ptr<AnalysisContext> context;
  std::vector<DerivationResult> rules;

  void Finish() {
    snapshot = world.Snapshot();
    context = std::make_unique<AnalysisContext>(&snapshot, world.registry.get());
    rules = context->rules();
  }
};

TEST(ModeAnalysisTest, ExclusiveOnlyWritesAreNotSuspicious) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    GlobalLock sem = m.world.sim->DefineStaticLock("sem", LockType::kRwSemaphore);
    for (int i = 0; i < 5; ++i) {
      m.world.sim->LockGlobal(sem, 2);  // Exclusive by default.
      m.world.sim->Write(obj, m.world.data, 3);
      m.world.sim->UnlockGlobal(sem, 4);
    }
    m.world.sim->Destroy(obj, 5);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  auto entries = analyzer.Analyze(m.rules);
  ASSERT_FALSE(entries.empty());
  for (const ModeReportEntry& entry : entries) {
    EXPECT_FALSE(entry.suspicious);
  }
  EXPECT_TRUE(analyzer.FindSharedModeWrites().empty());
}

TEST(ModeAnalysisTest, WriteUnderSharedHoldIsFlagged) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    GlobalLock sem = m.world.sim->DefineStaticLock("sem", LockType::kRwSemaphore);
    for (int i = 0; i < 4; ++i) {
      m.world.sim->LockGlobal(sem, 2);
      m.world.sim->Write(obj, m.world.data, 3);
      m.world.sim->UnlockGlobal(sem, 4);
    }
    // One write under a merely-shared hold: the rule is satisfied, but the
    // mode is wrong.
    m.world.sim->LockGlobal(sem, 5, AcquireMode::kShared);
    m.world.sim->Write(obj, m.world.data, 6);
    m.world.sim->UnlockGlobal(sem, 7);
    m.world.sim->Destroy(obj, 8);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  auto suspicious = analyzer.FindSharedModeWrites();
  ASSERT_EQ(suspicious.size(), 1u);
  ASSERT_EQ(suspicious[0]->usages.size(), 1u);
  EXPECT_EQ(suspicious[0]->usages[0].shared, 1u);
  EXPECT_EQ(suspicious[0]->usages[0].exclusive, 4u);
  EXPECT_NEAR(suspicious[0]->usages[0].shared_fraction(), 0.2, 1e-9);

  std::string text = analyzer.RenderEntry(*suspicious[0]);
  EXPECT_NE(text.find("write under shared hold"), std::string::npos);
  EXPECT_NE(text.find("shared=1 exclusive=4"), std::string::npos);
}

TEST(ModeAnalysisTest, SharedReadsAreFine) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    GlobalLock sem = m.world.sim->DefineStaticLock("sem", LockType::kRwSemaphore);
    for (int i = 0; i < 5; ++i) {
      m.world.sim->LockGlobal(sem, 2, AcquireMode::kShared);
      m.world.sim->Read(obj, m.world.data, 3);
      m.world.sim->UnlockGlobal(sem, 4);
    }
    m.world.sim->Destroy(obj, 5);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  auto entries = analyzer.Analyze(m.rules);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].access, AccessType::kRead);
  EXPECT_FALSE(entries[0].suspicious);
  EXPECT_EQ(entries[0].usages[0].shared, 5u);
}

TEST(ModeAnalysisTest, NoLockWinnersAreSkipped) {
  ModeWorld m;
  {
    FunctionScope fn(*m.world.sim, "t.c", "f", 1, 50);
    ObjectRef obj = m.world.sim->Create(m.world.type, kNoSubclass, 1);
    m.world.sim->Write(obj, m.world.data, 2);
    m.world.sim->Destroy(obj, 3);
  }
  m.Finish();
  ModeAnalyzer analyzer(*m.context);
  EXPECT_TRUE(analyzer.Analyze(m.rules).empty());
}

}  // namespace
}  // namespace lockdoc
