#include "src/core/report.h"

#include <gtest/gtest.h>

#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MixOptions mix;
    mix.ops = 4000;
    mix.seed = 4;
    sim_ = new SimulationResult(SimulateKernelRun(mix, FaultPlan{}));
    PipelineOptions options;
    options.filter = VfsKernel::MakeFilterConfig();
    snapshot_ = new AnalysisSnapshot(BuildSnapshot(sim_->trace, *sim_->registry, options));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete sim_;
    snapshot_ = nullptr;
    sim_ = nullptr;
  }

  static std::string Render(const ReportOptions& options) {
    AnalysisContext context(snapshot_, sim_->registry.get());
    return RenderReport(context, options);
  }

  static SimulationResult* sim_;
  static AnalysisSnapshot* snapshot_;
};

SimulationResult* ReportTest::sim_ = nullptr;
AnalysisSnapshot* ReportTest::snapshot_ = nullptr;

TEST_F(ReportTest, ContainsAllSections) {
  ReportOptions options;
  options.documented_rules_text = VfsKernel::DocumentedRulesText();
  std::string report = Render(options);

  EXPECT_NE(report.find("trace statistics"), std::string::npos);
  EXPECT_NE(report.find("documented-rule validation"), std::string::npos);
  EXPECT_NE(report.find("mined locking rules"), std::string::npos);
  EXPECT_NE(report.find("locking-rule violations"), std::string::npos);
  EXPECT_NE(report.find("lock ordering"), std::string::npos);
  EXPECT_NE(report.find("reader/writer acquisition modes"), std::string::npos);
  // Content spot checks.
  EXPECT_NE(report.find("inode:ext4"), std::string::npos);
  EXPECT_NE(report.find("total violating events:"), std::string::npos);
  EXPECT_NE(report.find("ABBA conflicts"), std::string::npos);
}

TEST_F(ReportTest, SectionsAreOptional) {
  ReportOptions options;
  options.lock_order = false;
  options.modes = false;
  std::string report = Render(options);
  EXPECT_EQ(report.find("documented-rule validation"), std::string::npos);
  EXPECT_EQ(report.find("lock ordering"), std::string::npos);
  EXPECT_EQ(report.find("acquisition modes"), std::string::npos);
  EXPECT_NE(report.find("mined locking rules"), std::string::npos);
}

TEST_F(ReportTest, FullDocumentationIncludesCommentBlocks) {
  ReportOptions options;
  options.full_documentation = true;
  std::string report = Render(options);
  EXPECT_NE(report.find("generated documentation"), std::string::npos);
  EXPECT_NE(report.find("locking rules (generated by LockDoc)"), std::string::npos);
}

}  // namespace
}  // namespace lockdoc
