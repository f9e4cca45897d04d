// check_docs: the locking-rule checker (paper Sec. 7.3). Validates the
// simulated kernel's "documented" locking rules — or a user-supplied
// rule-spec file — against a recorded trace, and buckets each rule as
// correct (!), ambivalent (~), incorrect (#), or unobserved (-).
//
// Usage: check_docs [--ops=20000] [--seed=1] [--rules=FILE]
//                   [--trace=FILE] (analyze an archived trace instead of
//                                   simulating a fresh run; requires the
//                                   built-in VFS type registry)
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/analysis_context.h"
#include "src/core/rule_checker.h"
#include "src/trace/trace_io.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  FlagSet flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // Rule spec: shipped documentation by default, or a file.
  std::string rules_text = VfsKernel::DocumentedRulesText();
  std::string rules_path = flags.GetString("rules", "");
  if (!rules_path.empty()) {
    std::ifstream in(rules_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", rules_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    rules_text = buffer.str();
  }
  auto rules = RuleSet::ParseText(rules_text);
  if (!rules.ok()) {
    std::fprintf(stderr, "rule parse error: %s\n", rules.status().message().c_str());
    return 1;
  }

  // Trace: archived file or fresh simulation.
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry;
  Trace trace;
  std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    registry = BuildVfsRegistry(&ids);
    auto loaded = ReadTraceFromFile(trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().message().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
  } else {
    MixOptions mix;
    mix.ops = flags.GetUint64("ops", 20000);
    mix.seed = flags.GetUint64("seed", 1);
    SimulationResult sim = SimulateKernelRun(mix, FaultPlan{});
    registry = std::move(sim.registry);
    trace = std::move(sim.trace);
  }

  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  PipelineResult result = RunPipeline(trace, *registry, options);

  AnalysisContext context(&result.snapshot, registry.get(), AnalysisOptions{options, {}});
  RuleChecker checker(context);
  std::vector<RuleCheckResult> checked = checker.CheckAll(rules.value());

  std::printf("=== per-rule results ===\n");
  for (const RuleCheckResult& r : checked) {
    std::printf("%s  %-70s sr=%7s (%llu/%llu)\n",
                std::string(RuleVerdictSymbol(r.verdict)).c_str(), r.rule.ToString().c_str(),
                r.total == 0 ? "n/a" : FormatPercent(r.sr).c_str(),
                static_cast<unsigned long long>(r.sa), static_cast<unsigned long long>(r.total));
  }

  std::printf("\n=== summary per data type (paper Tab. 4) ===\n");
  TextTable table({"Data Type", "#R", "#No", "#Ob", "! (%)", "~ (%)", "# (%)"});
  for (const RuleCheckSummary& s : RuleChecker::Summarize(checked)) {
    table.AddRow({s.type_name, std::to_string(s.documented), std::to_string(s.unobserved),
                  std::to_string(s.observed), StrFormat("%.2f", s.correct_pct()),
                  StrFormat("%.2f", s.ambivalent_pct()), StrFormat("%.2f", s.incorrect_pct())});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
