// End-to-end checks of the paper's Sec. 4 running example.
#include "src/core/clock_example.h"

#include <gtest/gtest.h>

#include "src/core/analysis_context.h"
#include "src/core/violation_finder.h"

namespace lockdoc {
namespace {

TEST(ClockExampleTest, SecondsRuleIsSecLock) {
  ClockExample example = BuildClockExample();
  PipelineResult result = RunPipeline(example.trace, *example.registry);
  MemberObsKey key;
  key.type = example.clock_type;
  key.subclass = kNoSubclass;
  key.member = example.seconds;
  RuleDerivator derivator;
  DerivationResult seconds = derivator.Derive(result.snapshot.observations, key, AccessType::kWrite);
  ASSERT_TRUE(seconds.winner.has_value());
  EXPECT_EQ(LockSeqToString(seconds.winner->locks), "sec_lock");
  EXPECT_DOUBLE_EQ(seconds.winner->sr, 1.0);
}

TEST(ClockExampleTest, MinutesWinnerIsFullChainDespiteBug) {
  ClockExample example = BuildClockExample();
  PipelineResult result = RunPipeline(example.trace, *example.registry);
  MemberObsKey key;
  key.type = example.clock_type;
  key.subclass = kNoSubclass;
  key.member = example.minutes;
  RuleDerivator derivator;
  DerivationResult minutes = derivator.Derive(result.snapshot.observations, key, AccessType::kWrite);
  EXPECT_EQ(LockSeqToString(minutes.winner->locks), "sec_lock -> min_lock");
}

TEST(ClockExampleTest, FaultyExecutionDetectedAsViolation) {
  ClockExample example = BuildClockExample();
  PipelineResult result = RunPipeline(example.trace, *example.registry);
  AnalysisContext context(&result.snapshot, example.registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(LockSeqToString(violations[0].held), "sec_lock");
  std::vector<CexGroupData> examples = finder.Forensics(violations, 1).groups;
  ASSERT_EQ(examples.size(), 1u);
  EXPECT_NE(examples[0].stack.find("clock_tick_buggy"), std::string::npos);
}

TEST(ClockExampleTest, WithoutFaultEverythingIsPerfect) {
  ClockExampleOptions options;
  options.include_faulty_execution = false;
  ClockExample example = BuildClockExample(options);
  PipelineResult result = RunPipeline(example.trace, *example.registry);
  for (const DerivationResult& rule : result.rules) {
    ASSERT_TRUE(rule.winner.has_value());
    EXPECT_DOUBLE_EQ(rule.winner->sr, 1.0);
  }
  AnalysisContext context(&result.snapshot, example.registry.get());
  ViolationFinder finder(context);
  EXPECT_TRUE(finder.FindAll(result.rules).empty());
}

TEST(ClockExampleTest, MinutesObservationCountMatchesPaper) {
  ClockExample example = BuildClockExample();  // 1000 iterations -> 16 + 1.
  PipelineResult result = RunPipeline(example.trace, *example.registry);
  MemberObsKey key;
  key.type = example.clock_type;
  key.subclass = kNoSubclass;
  key.member = example.minutes;
  EXPECT_EQ(result.snapshot.observations.CountObservations(key, AccessType::kWrite), 17u);
  // All reads of minutes are folded away by write-over-read.
  EXPECT_EQ(result.snapshot.observations.CountObservations(key, AccessType::kRead), 0u);
}

}  // namespace
}  // namespace lockdoc
