#include "src/core/pipeline.h"

#include <chrono>

#include "src/core/analysis_context.h"
#include "src/util/string_util.h"

namespace lockdoc {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

void PipelineTimings::Add(std::string phase, double seconds, uint64_t items) {
  std::lock_guard<std::mutex> lock(*mu_);
  phases.push_back({std::move(phase), seconds, items});
}

double PipelineTimings::total_seconds() const {
  std::lock_guard<std::mutex> lock(*mu_);
  double total = 0.0;
  for (const PhaseTiming& phase : phases) {
    total += phase.seconds;
  }
  return total;
}

std::string PipelineTimings::ToString() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::string out = StrFormat("pipeline timings (%zu jobs):\n", jobs);
  double total = 0.0;
  for (const PhaseTiming& phase : phases) {
    total += phase.seconds;
    out += StrFormat("  %-28s %8.3f s  %12s items  %14s items/s\n", phase.phase.c_str(),
                     phase.seconds, FormatWithCommas(phase.items).c_str(),
                     FormatWithCommas(static_cast<uint64_t>(phase.items_per_sec())).c_str());
  }
  out += StrFormat("  %-28s %8.3f s\n", "total", total);
  if (mining.any()) {
    out += StrFormat("  enumeration cache: %s hits, %s misses; %s candidates scored\n",
                     FormatWithCommas(mining.enum_cache_hits).c_str(),
                     FormatWithCommas(mining.enum_cache_misses).c_str(),
                     FormatWithCommas(mining.candidates_scored).c_str());
  }
  return out;
}

std::string PipelineTimings::ToJson() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::string out = StrFormat("{\"jobs\": %zu, \"phases\": [", jobs);
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseTiming& phase = phases[i];
    out += StrFormat("%s{\"phase\": \"%s\", \"seconds\": %.6f, \"items\": %llu, "
                     "\"items_per_sec\": %.1f}",
                     i == 0 ? "" : ", ", phase.phase.c_str(), phase.seconds,
                     static_cast<unsigned long long>(phase.items), phase.items_per_sec());
  }
  out += StrFormat("], \"mining\": {\"enum_cache_hits\": %llu, \"enum_cache_misses\": %llu, "
                   "\"candidates_scored\": %llu}}",
                   static_cast<unsigned long long>(mining.enum_cache_hits),
                   static_cast<unsigned long long>(mining.enum_cache_misses),
                   static_cast<unsigned long long>(mining.candidates_scored));
  return out;
}

AnalysisSnapshot ImportDatabase(const Trace& trace, const TypeRegistry& registry,
                                const PipelineOptions& options, ThreadPool* pool,
                                PipelineTimings* timings) {
  if (timings != nullptr) {
    timings->jobs = pool->thread_count();
  }
  AnalysisSnapshot snapshot;
  auto t0 = Clock::now();
  TraceImporter importer(&registry, options.filter);
  snapshot.import_stats = importer.Import(trace, &snapshot.db, pool);
  snapshot.trace_stats = ComputeTraceStats(trace);
  if (timings != nullptr) {
    timings->Add("database import", Seconds(t0, Clock::now()), snapshot.import_stats.events);
  }
  return snapshot;
}

void ExtractSnapshotObservations(AnalysisSnapshot* snapshot, const TypeRegistry& registry,
                                 ThreadPool* pool, PipelineTimings* timings) {
  auto t0 = Clock::now();
  snapshot->observations = ExtractObservations(snapshot->db, registry, pool);
  if (timings != nullptr) {
    timings->Add("observation extraction", Seconds(t0, Clock::now()),
                 snapshot->import_stats.accesses_kept);
  }
}

AnalysisSnapshot BuildSnapshot(const Trace& trace, const TypeRegistry& registry,
                               const PipelineOptions& options, PipelineTimings* timings) {
  ThreadPool pool(options.jobs);
  AnalysisSnapshot snapshot = ImportDatabase(trace, registry, options, &pool, timings);
  ExtractSnapshotObservations(&snapshot, registry, &pool, timings);
  return snapshot;
}

std::vector<DerivationResult> AnalyzeSnapshot(const AnalysisSnapshot& snapshot,
                                              const PipelineOptions& options,
                                              PipelineTimings* timings) {
  // The derive pass of the analysis-pass framework: a one-shot
  // AnalysisContext whose memoized rule set is moved out. Multi-pass
  // consumers should hold the context instead, so derivation happens once.
  AnalysisOptions context_options;
  context_options.pipeline = options;
  AnalysisContext context(&snapshot, nullptr, std::move(context_options), timings);
  return context.TakeRules();
}

PipelineResult RunPipeline(const Trace& trace, const TypeRegistry& registry,
                           const PipelineOptions& options) {
  PipelineResult result;
  result.snapshot = BuildSnapshot(trace, registry, options, &result.timings);
  result.rules = AnalyzeSnapshot(result.snapshot, options, &result.timings);
  return result;
}

}  // namespace lockdoc
