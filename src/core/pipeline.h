// The two-stage analysis pipeline (paper Fig. 5): a trace is imported ONCE
// into an AnalysisSnapshot — database + folded observations — and every
// analysis (derivation, checking, violations, lock order, modes, report)
// runs against that snapshot. BuildSnapshot is the expensive ingest stage;
// AnalyzeSnapshot is the cheap per-query stage. Snapshots are
// self-contained (the database owns its strings), so they can be persisted
// as .lockdb files (src/core/snapshot.h) and re-analyzed without the trace:
// import-once / analyze-many, like the paper's MariaDB instance.
//
// Phases 2/3 are data-parallel across (member, access) work items; `jobs`
// controls the thread count. Results — including the snapshot contents, and
// therefore the serialized .lockdb bytes — are byte-identical at any job
// count; see the determinism contract in src/util/thread_pool.h and
// DESIGN.md.
#ifndef SRC_CORE_PIPELINE_H_
#define SRC_CORE_PIPELINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/derivator.h"
#include "src/core/filter_config.h"
#include "src/core/importer.h"
#include "src/core/observations.h"
#include "src/db/database.h"
#include "src/model/type_registry.h"
#include "src/trace/trace.h"
#include "src/trace/trace_stats.h"
#include "src/util/thread_pool.h"

namespace lockdoc {

struct PipelineOptions {
  FilterConfig filter = FilterConfig::Defaults();
  DerivatorOptions derivator;
  // Analysis threads: 0 selects hardware_concurrency, 1 runs serially.
  size_t jobs = 0;
};

// Wall time and throughput of one pipeline phase.
struct PhaseTiming {
  std::string phase;
  double seconds = 0.0;
  uint64_t items = 0;  // Phase-specific unit (events, accesses, work items).

  double items_per_sec() const { return seconds > 0.0 ? items / seconds : 0.0; }
};

// Effectiveness counters of the interned-id mining core: how the
// per-store subsequence-enumeration cache behaved and how many candidate
// hypotheses were scored. All zero when derivation did not run.
struct MiningStats {
  uint64_t enum_cache_hits = 0;    // Lookups served from the shared cache.
  uint64_t enum_cache_misses = 0;  // Lookups that computed their entry.
  uint64_t candidates_scored = 0;  // Hypotheses scored across all members.

  bool any() const {
    return enum_cache_hits != 0 || enum_cache_misses != 0 || candidates_scored != 0;
  }
};

struct PipelineTimings {
  size_t jobs = 1;  // Lanes actually used (after resolving jobs = 0).
  std::vector<PhaseTiming> phases;
  MiningStats mining;

  // Thread-safe: passes running concurrently over one shared context (the
  // serve scheduler) append phases to the same record. The mutex lives
  // behind a shared_ptr so the struct stays copyable; copies made while no
  // writer is active (the only sane time to copy a timings record) share
  // the lock with their original.
  void Add(std::string phase, double seconds, uint64_t items);
  double total_seconds() const;
  // Aligned text block for terminals (one line per phase plus a total).
  std::string ToString() const;
  // {"jobs": N, "phases": [{"phase": ..., "seconds": ..., ...}],
  //  "mining": {"enum_cache_hits": ..., ...}}
  std::string ToJson() const;

 private:
  std::shared_ptr<std::mutex> mu_ = std::make_shared<std::mutex>();
};

// Keeps the bytes behind a zero-copy snapshot load alive: the .lockdb
// loader attaches table columns as views into an mmap-ed file (or an
// aligned in-memory buffer), and the AnalysisSnapshot pins the backing so
// those views stay valid for the snapshot's lifetime. Null for snapshots
// built from a trace (fully owned storage).
struct SnapshotBacking {
  virtual ~SnapshotBacking() = default;
  std::string_view bytes;
};

// Everything the ingest stage produces, and everything the analysis stage
// consumes. Self-contained: the database owns a copy of the trace's string
// pool, the observation store owns its interned lock classes, and the trace
// statistics are captured here — neither the Trace nor any other ingest
// input needs to outlive a snapshot.
struct AnalysisSnapshot {
  Database db;
  ImportStats import_stats;
  TraceStats trace_stats;
  ObservationStore observations;
  // Set by the zero-copy .lockdb load path; see SnapshotBacking.
  std::shared_ptr<const SnapshotBacking> backing;
};

struct PipelineResult {
  AnalysisSnapshot snapshot;
  std::vector<DerivationResult> rules;
  PipelineTimings timings;
};

// The import half of stage 1: database import plus trace statistics into a
// fresh snapshot whose observations are still empty, run on `pool`. Records
// the pool's lane count as timings->jobs and appends the "database import"
// phase. BuildSnapshot and BuildAndSaveSnapshot (src/core/snapshot.h) both
// start here.
AnalysisSnapshot ImportDatabase(const Trace& trace, const TypeRegistry& registry,
                                const PipelineOptions& options, ThreadPool* pool,
                                PipelineTimings* timings = nullptr);

// The extraction half of stage 1: folds `snapshot->db` into
// `snapshot->observations` on `pool` and appends the "observation
// extraction" phase. BuildSnapshot and BuildAndSaveSnapshot both end here.
void ExtractSnapshotObservations(AnalysisSnapshot* snapshot, const TypeRegistry& registry,
                                 ThreadPool* pool, PipelineTimings* timings = nullptr);

// Stage 1 (ingest): database import + observation extraction. Appends the
// "database import" and "observation extraction" phases to `timings` when
// given. `registry` must outlive the snapshot (member/type names for lock
// classes are resolved through it); the trace is fully consumed.
AnalysisSnapshot BuildSnapshot(const Trace& trace, const TypeRegistry& registry,
                               const PipelineOptions& options = {},
                               PipelineTimings* timings = nullptr);

// Stage 2 (analysis): rule derivation against a snapshot — fresh from
// BuildSnapshot or loaded from a .lockdb file. Appends the "rule derivation
// (interned)" phase and the mining counters to `timings` when given.
std::vector<DerivationResult> AnalyzeSnapshot(const AnalysisSnapshot& snapshot,
                                              const PipelineOptions& options = {},
                                              PipelineTimings* timings = nullptr);

// Both stages back to back: the programmatic equivalent of running all
// LockDoc phases (Fig. 5) in one process.
PipelineResult RunPipeline(const Trace& trace, const TypeRegistry& registry,
                           const PipelineOptions& options = {});

}  // namespace lockdoc

#endif  // SRC_CORE_PIPELINE_H_
