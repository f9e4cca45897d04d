// Shared setup for the table/figure reproduction benches: one standard
// simulated-kernel run (the paper's benchmark mix, Sec. 7.1) plus the
// LockDoc pipeline over it.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cstdlib>
#include <string>

#include "src/core/analysis_context.h"
#include "src/core/pipeline.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {

struct StandardRun {
  SimulationResult sim;
  PipelineResult pipeline;
  MixOptions mix;
  PipelineOptions options;

  // A fresh analysis context over the pipeline's snapshot, run with the
  // same options (so --jobs also sets the analyzers' thread count).
  AnalysisContext Context() {
    return AnalysisContext(&pipeline.snapshot, sim.registry.get(), AnalysisOptions{options, {}});
  }
};

// Runs the standard evaluation setup. Flags: --ops (default 30000),
// --seed (default 1), --tac (default 0.9), --jobs (default 0 = all
// hardware threads; results are byte-identical at any value). The
// LOCKDOC_BENCH_OPS environment variable overrides the default op count
// (handy for CI).
inline StandardRun RunStandardEvaluation(int argc, const char* const* argv,
                                         CoverageTracker* coverage = nullptr) {
  FlagSet flags;
  std::string error;
  flags.Parse(argc, argv, &error);

  StandardRun run;
  run.mix.ops = flags.GetUint64("ops", 30000);
  if (const char* env = std::getenv("LOCKDOC_BENCH_OPS"); env != nullptr) {
    uint64_t ops = 0;
    if (ParseUint64(env, &ops) && ops > 0) {
      run.mix.ops = ops;
    }
  }
  run.mix.seed = flags.GetUint64("seed", 1);
  run.sim = SimulateKernelRun(run.mix, FaultPlan{}, coverage);

  run.options.filter = VfsKernel::MakeFilterConfig();
  run.options.derivator.accept_threshold = flags.GetDouble("tac", 0.9);
  run.options.jobs = flags.GetUint64("jobs", 0);
  run.pipeline = RunPipeline(run.sim.trace, *run.sim.registry, run.options);
  return run;
}

}  // namespace lockdoc

#endif  // BENCH_COMMON_H_
