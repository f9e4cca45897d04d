// Tab. 7 reproduction: locking-rule violations per data type — violating
// memory-access events, distinct members involved, and distinct contexts
// (source location + call stack).
#include <cstdio>

#include "bench/common.h"
#include "src/core/violation_finder.h"
#include "src/util/stats.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  StandardRun run = RunStandardEvaluation(argc, argv);

  AnalysisContext context = run.Context();
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(run.pipeline.rules);

  std::printf("Tab. 7 — summary of locking-rule violations\n\n");
  TextTable table({"Data Type", "Events", "Members", "Contexts"});
  uint64_t total_events = 0;
  uint64_t total_contexts = 0;
  for (const ViolationSummaryRow& row : finder.Summarize(violations)) {
    table.AddRow({row.type_name, std::to_string(row.events), std::to_string(row.members),
                  std::to_string(row.contexts)});
    total_events += row.events;
    total_contexts += row.contexts;
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\ntotal: %llu events at %llu contexts (paper: 52,452 events at 986 contexts on\n"
              "a 34-minute emulator run; scale with --ops)\n",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_contexts));
  std::printf("paper shape: buffer_head dominates; cdev, journal_head, transaction_t and the\n"
              "anon_inodefs/debugfs/pipefs/proc/sockfs inodes are violation-free.\n");
  return 0;
}
